package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestFramePreambleRoundTrip(t *testing.T) {
	pre := framePreamble()
	if len(pre) != 4 || pre[0] != frameLead {
		t.Fatalf("preamble = %v", pre)
	}
	if err := checkPreamble(pre); err != nil {
		t.Fatalf("checkPreamble(own preamble) = %v", err)
	}
	for name, bad := range map[string][]byte{
		"future version": {frameLead, 'O', 'W', 0x7f},
		"bad magic":      {frameLead, 'X', 'Y', frameVersion},
		"bad lead byte":  {0x1f, 'O', 'W', frameVersion},
		"short":          pre[:3],
	} {
		if err := checkPreamble(bad); err == nil {
			t.Errorf("%s accepted: % x", name, bad)
		}
	}
}

func TestRequestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		service, method string
		body            []byte
	}{
		{"svc", "method", []byte("hello")},
		{"", "", nil},
		{"s", "m", bytes.Repeat([]byte{0xab}, 1<<16)},
		{strings.Repeat("x", 300), "m", []byte{0}},
	}
	for _, tc := range cases {
		frame := appendRequestFrame(nil, 42, tc.service, tc.method, tc.body)
		kind, id, payload, err := readFrame(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if kind != frameKindRequest || id != 42 {
			t.Fatalf("kind,id = %d,%d", kind, id)
		}
		service, method, body, err := parseRequest(payload)
		if err != nil {
			t.Fatalf("parseRequest: %v", err)
		}
		if service != tc.service || method != tc.method || !bytes.Equal(body, tc.body) {
			t.Fatalf("round trip mismatch: (%q,%q,%d bytes)", service, method, len(body))
		}
	}
}

func TestResponseFrameRoundTrip(t *testing.T) {
	// Success carrying a body.
	frame := appendResponseFrame(nil, 7, "", []byte("result"))
	_, id, payload, err := readFrame(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil || id != 7 {
		t.Fatalf("readFrame: id=%d err=%v", id, err)
	}
	body, isErr, msg, err := parseResponse(payload)
	if err != nil || isErr || msg != "" || string(body) != "result" {
		t.Fatalf("parseResponse = (%q,%v,%q,%v)", body, isErr, msg, err)
	}
	// Error carrying a message.
	frame = appendResponseFrame(nil, 8, "boom", nil)
	_, _, payload, err = readFrame(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	if _, isErr, msg, _ := parseResponse(payload); !isErr || msg != "boom" {
		t.Fatalf("error response = (%v, %q)", isErr, msg)
	}
}

// TestFrameCorruptionDetected flips each byte of a frame in turn; every
// mutation must surface an error (CRC or length check), never a silently
// different decode.
func TestFrameCorruptionDetected(t *testing.T) {
	orig := appendRequestFrame(nil, 99, "svc", "meth", []byte("payload!"))
	for i := range orig {
		mut := bytes.Clone(orig)
		mut[i] ^= 0x40
		kind, id, payload, err := readFrame(bufio.NewReader(bytes.NewReader(mut)))
		if err != nil {
			continue // detected: corrupt, short read, or over-limit
		}
		s, m, b, err := parseRequest(payload)
		if err != nil {
			continue
		}
		if kind == frameKindRequest && id == 99 && s == "svc" && m == "meth" && string(b) == "payload!" {
			t.Fatalf("byte %d flip decoded identically", i)
		}
		t.Fatalf("byte %d flip decoded without error to (%d,%d,%q,%q)", i, kind, id, s, m)
	}
}

func TestFrameLengthBounds(t *testing.T) {
	var buf []byte
	buf = binary.BigEndian.AppendUint32(buf, maxFrameSize+1)
	if _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(buf))); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("oversize frame err = %v", err)
	}
	buf = binary.BigEndian.AppendUint32(nil, frameEnvelope-1)
	if _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(buf))); !errors.Is(err, errFrameCorrupt) {
		t.Fatalf("undersize frame err = %v", err)
	}
}

// FuzzFrameRoundTrip: for any (id, service, method, body), the encoded
// request frame decodes back to exactly the same parts.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint64(1), "svc", "method", []byte("body"))
	f.Add(uint64(0), "", "", []byte(nil))
	f.Add(^uint64(0), "a", strings.Repeat("m", 100), bytes.Repeat([]byte{0xff}, 500))
	f.Fuzz(func(t *testing.T, id uint64, service, method string, body []byte) {
		if len(service) > 0xffff || len(method) > 0xffff {
			t.Skip() // name lengths are u16 on the wire by construction
		}
		frame := appendRequestFrame(nil, id, service, method, body)
		kind, gotID, payload, err := readFrame(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil {
			t.Fatalf("readFrame(own encoding): %v", err)
		}
		if kind != frameKindRequest || gotID != id {
			t.Fatalf("kind,id = %d,%d want %d,%d", kind, gotID, frameKindRequest, id)
		}
		s, m, b, err := parseRequest(payload)
		if err != nil {
			t.Fatalf("parseRequest(own encoding): %v", err)
		}
		if s != service || m != method || !bytes.Equal(b, body) {
			t.Fatalf("round trip mismatch")
		}
	})
}

// FuzzReadFrame: arbitrary bytes must never panic the frame reader or the
// payload parsers — they may only return errors (or a valid decode, if
// the fuzzer constructs one).
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(framePreamble())
	f.Add(appendRequestFrame(nil, 3, "svc", "m", []byte("x")))
	f.Add(appendResponseFrame(nil, 4, "err text", nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			kind, _, payload, err := readFrame(br)
			if err != nil {
				return // includes io.EOF / io.ErrUnexpectedEOF
			}
			switch kind {
			case frameKindRequest:
				parseRequest(payload) //nolint:errcheck
			case frameKindRespons:
				parseResponse(payload) //nolint:errcheck
			}
			_ = io.EOF
		}
	})
}
