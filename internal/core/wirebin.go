package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cert"
)

// Binary wire bodies for the callback-validation hot path. Each body
// starts with a tag byte naming its kind, and a decoder refuses any other
// tag. Certificates embed their cert package binary forms; strings ride
// as uvarint length + bytes.
const (
	tagValidateRMCReq    = 0x01
	tagValidateApptReq   = 0x02
	tagValidateResp      = 0x03
	tagValidateBatchReq  = 0x04
	tagValidateBatchResp = 0x05
)

// errWireBin marks malformed binary validation bodies.
var errWireBin = errors.New("core: malformed binary wire body")

// maxBatchItems bounds a decoded batch so a corrupt count cannot drive a
// huge allocation.
const maxBatchItems = 1 << 14

func appendWireString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readWireUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errWireBin
	}
	return v, b[n:], nil
}

func readWireString(b []byte) (string, []byte, error) {
	n, rest, err := readWireUvarint(b)
	if err != nil || uint64(len(rest)) < n {
		return "", nil, errWireBin
	}
	return string(rest[:n]), rest[n:], nil
}

// validateItem is one callback validation in transit: either an RMC with
// its presenting principal, or an appointment certificate. It is the unit
// the client-side batcher coalesces and the batch wire body carries.
type validateItem struct {
	isAppt    bool
	rmc       cert.RMC
	principal string
	appt      cert.AppointmentCertificate
}

func rmcItem(r cert.RMC, principal string) validateItem {
	return validateItem{rmc: r, principal: principal}
}

func apptItem(a cert.AppointmentCertificate) validateItem {
	return validateItem{isAppt: true, appt: a}
}

// method returns the single-call RPC method for this item.
func (it validateItem) method() string {
	if it.isAppt {
		return "validate_appt"
	}
	return "validate_rmc"
}

// appendBody appends the item's payload (no tag): the per-item encoding
// shared by single requests and batch entries.
func (it validateItem) appendBody(dst []byte) []byte {
	if it.isAppt {
		return cert.AppendAppointmentBinary(dst, it.appt)
	}
	dst = appendWireString(dst, it.principal)
	return cert.AppendRMCBinary(dst, it.rmc)
}

// encodeBinary produces the item's tagged single-request body.
func (it validateItem) encodeBinary() []byte {
	tag := byte(tagValidateRMCReq)
	if it.isAppt {
		tag = tagValidateApptReq
	}
	return it.appendBody([]byte{tag})
}

// readItemBody decodes one item payload (no tag) from the front of b.
func readItemBody(b []byte, isAppt bool) (validateItem, []byte, error) {
	if isAppt {
		a, rest, err := cert.ReadAppointmentBinary(b)
		if err != nil {
			return validateItem{}, nil, err
		}
		return apptItem(a), rest, nil
	}
	principal, rest, err := readWireString(b)
	if err != nil {
		return validateItem{}, nil, err
	}
	r, rest, err := cert.ReadRMCBinary(rest)
	if err != nil {
		return validateItem{}, nil, err
	}
	return rmcItem(r, principal), rest, nil
}

// decodeValidateReqBinary decodes a tagged single-request body
// (tagValidateRMCReq or tagValidateApptReq).
func decodeValidateReqBinary(body []byte) (validateItem, error) {
	if len(body) < 1 || (body[0] != tagValidateRMCReq && body[0] != tagValidateApptReq) {
		return validateItem{}, errWireBin
	}
	it, rest, err := readItemBody(body[1:], body[0] == tagValidateApptReq)
	if err != nil {
		return validateItem{}, err
	}
	if len(rest) != 0 {
		return validateItem{}, fmt.Errorf("%w: %d trailing bytes", errWireBin, len(rest))
	}
	return it, nil
}

// encodeValidateRespBinary encodes a validation verdict.
func encodeValidateRespBinary(resp validateResponse) []byte {
	dst := []byte{tagValidateResp, 0}
	if resp.Valid {
		dst[1] = 1
	}
	return appendWireString(dst, resp.Reason)
}

// decodeValidateRespBinary decodes a tagged verdict body.
func decodeValidateRespBinary(body []byte) (validateResponse, error) {
	if len(body) < 2 || body[0] != tagValidateResp {
		return validateResponse{}, errWireBin
	}
	reason, rest, err := readWireString(body[2:])
	if err != nil || len(rest) != 0 {
		return validateResponse{}, errWireBin
	}
	return validateResponse{Valid: body[1] == 1, Reason: reason}, nil
}

// encodeValidateBatchReq encodes N items as one validate_batch body: tag,
// count, then each item as kind byte + payload.
// appendBatchItem appends one batch entry: kind byte then body.
func appendBatchItem(dst []byte, it *validateItem) []byte {
	kind := byte(1)
	if it.isAppt {
		kind = 2
	}
	dst = append(dst, kind)
	return it.appendBody(dst)
}

func encodeValidateBatchReq(items []validateItem) []byte {
	dst := binary.AppendUvarint([]byte{tagValidateBatchReq}, uint64(len(items)))
	for i := range items {
		dst = appendBatchItem(dst, &items[i])
	}
	return dst
}

// decodeValidateBatchReq decodes a validate_batch request body.
func decodeValidateBatchReq(body []byte) ([]validateItem, error) {
	return decodeValidateBatchReqInto(nil, body)
}

// batchItemsPool recycles the handler's decoded batch slices;
// batchRespsPool recycles the verdict slices built alongside them.
var (
	batchItemsPool sync.Pool
	batchRespsPool sync.Pool
)

// decodeValidateBatchReqInto decodes into dst's storage (the handler
// recycles batch item slices — a storm decodes hundreds of large items
// per round trip).
func decodeValidateBatchReqInto(dst []validateItem, body []byte) ([]validateItem, error) {
	if len(body) < 1 || body[0] != tagValidateBatchReq {
		return nil, errWireBin
	}
	n, rest, err := readWireUvarint(body[1:])
	if err != nil {
		return nil, err
	}
	if n > maxBatchItems || n > uint64(len(rest)) {
		return nil, fmt.Errorf("%w: batch count %d", errWireBin, n)
	}
	items := dst[:0]
	if cap(items) < int(n) {
		// Round the capacity up to a power of two so recycled slices fit
		// later batches of similar-but-not-identical size instead of
		// missing the pool on every herd-size fluctuation.
		c := 64
		for c < int(n) {
			c *= 2
		}
		items = make([]validateItem, 0, c)
	}
	for i := uint64(0); i < n; i++ {
		if len(rest) < 1 {
			return nil, errWireBin
		}
		kind := rest[0]
		if kind != 1 && kind != 2 {
			return nil, fmt.Errorf("%w: batch item kind %d", errWireBin, kind)
		}
		var it validateItem
		it, rest, err = readItemBody(rest[1:], kind == 2)
		if err != nil {
			return nil, err
		}
		items = append(items, it)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errWireBin, len(rest))
	}
	return items, nil
}

// encodeValidateBatchResp encodes the per-item verdicts, in request
// order.
func encodeValidateBatchResp(resps []validateResponse) []byte {
	size := 1 + binary.MaxVarintLen32
	for _, r := range resps {
		size += 1 + binary.MaxVarintLen32 + len(r.Reason)
	}
	dst := make([]byte, 0, size)
	dst = append(dst, tagValidateBatchResp)
	dst = binary.AppendUvarint(dst, uint64(len(resps)))
	for _, r := range resps {
		v := byte(0)
		if r.Valid {
			v = 1
		}
		dst = append(dst, v)
		dst = appendWireString(dst, r.Reason)
	}
	return dst
}

// decodeValidateBatchResp decodes a validate_batch response body.
func decodeValidateBatchResp(body []byte) ([]validateResponse, error) {
	return decodeValidateBatchRespInto(nil, body)
}

// decodeValidateBatchRespInto decodes into dst's storage (the batcher
// recycles verdict slices across herds).
func decodeValidateBatchRespInto(dst []validateResponse, body []byte) ([]validateResponse, error) {
	if len(body) < 1 || body[0] != tagValidateBatchResp {
		return nil, errWireBin
	}
	n, rest, err := readWireUvarint(body[1:])
	if err != nil {
		return nil, err
	}
	if n > maxBatchItems || n > uint64(len(rest)) {
		return nil, fmt.Errorf("%w: batch count %d", errWireBin, n)
	}
	resps := dst[:0]
	if cap(resps) < int(n) {
		resps = make([]validateResponse, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		if len(rest) < 1 {
			return nil, errWireBin
		}
		valid := rest[0] == 1
		var reason string
		reason, rest, err = readWireString(rest[1:])
		if err != nil {
			return nil, err
		}
		resps = append(resps, validateResponse{Valid: valid, Reason: reason})
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errWireBin, len(rest))
	}
	return resps, nil
}
