package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Wire protocol "OW2": length-prefixed, CRC-checked binary frames
// multiplexed by request id over one connection. Many calls are in flight
// per connection at once; responses match requests by id, so a slow
// handler does not head-of-line-block its pool slot, and a late response
// is simply dropped by the demux.
//
// A client announces itself with a 4-byte preamble the moment the
// connection opens:
//
//	0x00 'O' 'W' version
//
// The server reads all four bytes before anything else and closes, without
// answering, a connection whose preamble is anything other than its own.
//
// Every frame after the preamble has the same envelope in both
// directions:
//
//	u32  length   big-endian count of the bytes that follow (kind..crc)
//	u8   kind     1 = request, 2 = response, 3 = event, 4 = cancel
//	u64  id       big-endian request id
//	...  payload  kind-specific (below)
//	u32  crc      IEEE CRC-32 of kind..payload
//
// Request payload:  u16 len + service, u16 len + method, body (to crc).
// Response payload: u8 flags (bit0 = error), data (to crc) — the handler
// result body, or the error text when the flag is set.
// Event payload:    opaque bytes, pushed server→client on a stream whose
// id is the id of the subscribe request that opened it (see stream.go).
// Cancel payload:   empty, sent client→server to end the stream opened
// by the request with the same id (unacknowledged; see stream.go).
const (
	frameLead        = 0x00
	frameMagic0      = 'O'
	frameMagic1      = 'W'
	frameVersion     = 0x02
	frameKindRequest = 0x01
	frameKindRespons = 0x02
	frameKindEvent   = 0x03
	frameKindCancel  = 0x04
	respFlagError    = 0x01

	// frameEnvelope is the non-payload byte count covered by the length
	// field: kind (1) + id (8) + crc (4).
	frameEnvelope = 13

	// maxFrameSize bounds a single frame so a corrupt or hostile length
	// prefix cannot make the reader allocate without limit.
	maxFrameSize = 64 << 20
)

// Errors surfaced by the frame codec. Both mark the stream unusable: with
// no resynchronisation point, a bad length or checksum poisons everything
// after it.
var (
	errFrameCorrupt  = errors.New("rpc: corrupt frame")
	errFrameTooLarge = errors.New("rpc: frame exceeds size limit")
)

// framePreamble returns the 4-byte connection preamble a client sends
// before its first frame.
func framePreamble() []byte {
	return []byte{frameLead, frameMagic0, frameMagic1, frameVersion}
}

// checkPreamble validates a 4-byte connection preamble.
func checkPreamble(p []byte) error {
	if len(p) != 4 || p[0] != frameLead || p[1] != frameMagic0 || p[2] != frameMagic1 {
		return fmt.Errorf("%w: bad preamble magic", errFrameCorrupt)
	}
	if p[3] != frameVersion {
		return fmt.Errorf("%w: unsupported protocol version %d", errFrameCorrupt, p[3])
	}
	return nil
}

// frameBufPool recycles outbound frame buffers: a frame is built, handed
// to the connection's writer goroutine, copied into the buffered writer
// and then dead — exactly the lifecycle a pool wants. Oversized buffers
// (one giant batch) are dropped rather than pinned.
var frameBufPool sync.Pool

const frameBufPoolMax = 256 << 10

func getFrameBuf() []byte {
	if v := frameBufPool.Get(); v != nil {
		return (*v.(*[]byte))[:0]
	}
	return nil
}

func putFrameBuf(buf []byte) {
	if cap(buf) == 0 || cap(buf) > frameBufPoolMax {
		return
	}
	frameBufPool.Put(&buf)
}

// appendFrame appends one complete frame (envelope + payload + crc) to
// buf. The payload is passed in up to three segments so request encoding
// never concatenates service/method/body into a scratch buffer first.
func appendFrame(buf []byte, kind byte, id uint64, segs ...[]byte) []byte {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(frameEnvelope+n))
	start := len(buf)
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint64(buf, id)
	for _, s := range segs {
		buf = append(buf, s...)
	}
	crc := crc32.ChecksumIEEE(buf[start:])
	return binary.BigEndian.AppendUint32(buf, crc)
}

// appendRequestFrame encodes a request frame: the payload is the
// length-prefixed service and method names followed by the raw body.
func appendRequestFrame(buf []byte, id uint64, service, method string, body []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint16(hdr[0:], uint16(len(service)))
	binary.BigEndian.PutUint16(hdr[2:], uint16(len(method)))
	// Assemble the variable-length payload head; the body segment rides
	// as-is (no copy beyond the single append into the output buffer).
	head := make([]byte, 0, 4+len(service)+len(method))
	head = append(head, hdr[:]...)
	head = append(head, service...)
	head = append(head, method...)
	return appendFrame(buf, frameKindRequest, id, head, body)
}

// appendResponseFrame encodes a response frame; errMsg != "" marks a
// handler error (the data segment then carries the error text).
func appendResponseFrame(buf []byte, id uint64, errMsg string, body []byte) []byte {
	if errMsg != "" {
		return appendFrame(buf, frameKindRespons, id, []byte{respFlagError}, []byte(errMsg))
	}
	return appendFrame(buf, frameKindRespons, id, []byte{0}, body)
}

// readFrame reads one frame off the stream, verifying the length bound
// and checksum. The returned payload is freshly allocated per frame (it
// outlives the read loop inside handler goroutines and response
// channels).
func readFrame(br *bufio.Reader) (kind byte, id uint64, payload []byte, err error) {
	kind, id, payload, _, err = readFrameInto(br, nil)
	return kind, id, payload, err
}

// readFrameInto is readFrame with a caller-recycled backing buffer: the
// frame is read into buf when it fits, and the actual storage is
// returned so the caller can pool it once the payload is dead. The
// server request loop uses this — a request frame's payload only has to
// outlive its handler call, unlike response payloads, whose ownership
// passes to Call's callers.
func readFrameInto(br *bufio.Reader, buf []byte) (kind byte, id uint64, payload, frame []byte, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		return 0, 0, nil, nil, err
	}
	frameLen := binary.BigEndian.Uint32(lenBuf[:])
	if frameLen < frameEnvelope {
		return 0, 0, nil, nil, fmt.Errorf("%w: frame length %d below envelope", errFrameCorrupt, frameLen)
	}
	if frameLen > maxFrameSize {
		return 0, 0, nil, nil, fmt.Errorf("%w: %d bytes", errFrameTooLarge, frameLen)
	}
	if cap(buf) >= int(frameLen) {
		frame = buf[:frameLen]
	} else {
		frame = make([]byte, frameLen)
	}
	if _, err := io.ReadFull(br, frame); err != nil {
		return 0, 0, nil, nil, err
	}
	crcAt := frameLen - 4
	want := binary.BigEndian.Uint32(frame[crcAt:])
	if got := crc32.ChecksumIEEE(frame[:crcAt]); got != want {
		return 0, 0, nil, nil, fmt.Errorf("%w: crc mismatch", errFrameCorrupt)
	}
	kind = frame[0]
	id = binary.BigEndian.Uint64(frame[1:9])
	return kind, id, frame[9:crcAt], frame, nil
}

// parseRequest splits a request frame payload into its parts. service and
// method are copied into strings; body aliases the frame buffer (each
// frame owns its allocation, so the alias is safe for the handler's
// lifetime).
func parseRequest(payload []byte) (service, method string, body []byte, err error) {
	if len(payload) < 4 {
		return "", "", nil, fmt.Errorf("%w: truncated request head", errFrameCorrupt)
	}
	sLen := int(binary.BigEndian.Uint16(payload[0:]))
	mLen := int(binary.BigEndian.Uint16(payload[2:]))
	if len(payload) < 4+sLen+mLen {
		return "", "", nil, fmt.Errorf("%w: request names overflow payload", errFrameCorrupt)
	}
	service = string(payload[4 : 4+sLen])
	method = string(payload[4+sLen : 4+sLen+mLen])
	body = payload[4+sLen+mLen:]
	if len(body) == 0 {
		body = nil
	}
	return service, method, body, nil
}

// parseResponse splits a response frame payload. When isErr is set the
// data segment is the remote error text, otherwise it is the result body
// (aliasing the frame buffer, which the response owns).
func parseResponse(payload []byte) (body []byte, isErr bool, errMsg string, err error) {
	if len(payload) < 1 {
		return nil, false, "", fmt.Errorf("%w: empty response payload", errFrameCorrupt)
	}
	data := payload[1:]
	if payload[0]&respFlagError != 0 {
		return nil, true, string(data), nil
	}
	if len(data) == 0 {
		data = nil
	}
	return data, false, "", nil
}
