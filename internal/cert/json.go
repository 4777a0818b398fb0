package cert

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/internal/names"
	"repro/internal/sign"
)

// JSON certificate reader: a single-pass decoder for the RMC's JSON form
// on the HTTP edge's validation path, where encoding/json's reflection
// cost most of the handler's time. Its contract is json.Unmarshal's: it
// accepts exactly the documents json.Unmarshal accepts into the same Go
// value, leaves the same result, and rejects the rest. That includes the
// quirks callers can see:
//
//   - keys match field names case-insensitively (bytes.EqualFold after
//     unescaping); unknown keys are skipped, but must hold valid JSON;
//   - a repeated key overwrites a scalar and decodes an object or array
//     in place, over what the earlier occurrence left;
//   - null sets a pointer or slice to nil and leaves anything else as it
//     was;
//   - a slice is decoded over its old elements and truncated, a fixed
//     array zero-fills missing elements and ignores extra ones, and an
//     empty JSON array leaves an empty, non-nil slice;
//   - integers reject fractions, exponents and overflow, and unsigned
//     fields reject a minus sign, -0 included.
//
// Strings holding an escape or a non-ASCII byte, and skipped values, are
// handed to encoding/json (json.Unmarshal on the token, json.Valid on the
// span) so the rare inputs get exactly its unescaping and its grammar;
// the canonical bodies never take that path. Every decoded string is a
// copy, so nothing aliases the input buffer.

// ErrJSON is returned for a document json.Unmarshal would refuse:
// malformed JSON, or a value of the wrong type for its field.
var ErrJSON = errors.New("cert: malformed or mistyped JSON")

// JSONReader is a bounds-checked cursor over one JSON document, in the
// style of BinReader: the first error is sticky, later reads do nothing,
// and the caller checks Err once. Objects and arrays are read with Open
// and More:
//
//	if r.Open('{') {
//		for r.More('}') {
//			switch key := r.Key(); { ... }
//		}
//	}
type JSONReader struct {
	b     []byte
	i     int
	err   error
	depth int  // containers open at the cursor
	first bool // the container just opened has had no element yet
}

// maxDepth is encoding/json's nesting limit, which Raw enforces on the
// whole document, not only on the span it returns.
const maxDepth = 10000

// NewJSONReader returns a cursor at the front of b.
func NewJSONReader(b []byte) *JSONReader { return &JSONReader{b: b} }

// Err is the first decode error, nil while the document so far is valid.
func (r *JSONReader) Err() error { return r.err }

// Fail marks the document refused at the cursor; later reads do nothing.
func (r *JSONReader) Fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w at offset %d", ErrJSON, r.i)
	}
}

// ws skips JSON whitespace and reports whether a byte follows it.
func (r *JSONReader) ws() bool {
	for ; r.i < len(r.b); r.i++ {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
		default:
			return true
		}
	}
	return false
}

// End requires that only whitespace follows the value just read.
func (r *JSONReader) End() {
	if r.err == nil && r.ws() {
		r.Fail()
	}
}

// Null consumes a null literal if one is next and reports whether it did.
// Every value read asks first, hence the cheap first-byte test.
func (r *JSONReader) Null() bool {
	if r.err != nil || !r.ws() || r.b[r.i] != 'n' || !bytes.HasPrefix(r.b[r.i:], []byte("null")) {
		return false
	}
	r.i += len("null")
	return true
}

// Open consumes the opening delimiter of an object ('{') or array ('[');
// anything else is refused as the wrong type.
func (r *JSONReader) Open(delim byte) bool {
	if r.err != nil {
		return false
	}
	if !r.ws() || r.b[r.i] != delim {
		r.Fail()
		return false
	}
	r.i++
	r.depth++
	r.first = true
	return true
}

// More reports whether the container opened last has another element,
// consuming the separating comma; at the closing delimiter it consumes
// that and reports false.
func (r *JSONReader) More(closer byte) bool {
	if r.err != nil {
		return false
	}
	if !r.ws() {
		r.Fail()
		return false
	}
	if r.b[r.i] == closer {
		r.i++
		r.depth--
		r.first = false
		return false
	}
	if r.first {
		r.first = false
		return true
	}
	if r.b[r.i] != ',' {
		r.Fail()
		return false
	}
	r.i++
	return true
}

// Key reads an object key and its colon, returning the unescaped key. A
// plain key aliases the input; it is only for KeyIs, never retained.
func (r *JSONReader) Key() []byte {
	tok, plain := r.strToken()
	if r.err != nil {
		return nil
	}
	var key []byte
	if plain {
		key = tok[1 : len(tok)-1]
	} else {
		var s string
		if json.Unmarshal(tok, &s) != nil {
			r.Fail()
			return nil
		}
		key = []byte(s)
	}
	if !r.ws() || r.b[r.i] != ':' {
		r.Fail()
		return nil
	}
	r.i++
	return key
}

// KeyIs reports whether an object key selects the field named name, as
// encoding/json matches them: case-insensitively, with bytes.EqualFold
// semantics, so the Kelvin sign and the long s fold to k and s.
func KeyIs(key []byte, name string) bool {
	return bytes.EqualFold(key, []byte(name))
}

// strToken consumes a string token, quotes included. plain reports that
// it holds neither an escape nor a non-ASCII byte, so its contents are
// the string.
func (r *JSONReader) strToken() (tok []byte, plain bool) {
	if r.err != nil {
		return nil, false
	}
	if !r.ws() || r.b[r.i] != '"' {
		r.Fail()
		return nil, false
	}
	start := r.i
	plain = true
	for i := start + 1; i < len(r.b); i++ {
		switch c := r.b[i]; {
		case c == '"':
			r.i = i + 1
			return r.b[start:r.i], plain
		case c == '\\':
			plain = false
			i++
		case c < 0x20:
			r.i = i
			r.Fail()
			return nil, false
		case c >= 0x80:
			plain = false
		}
	}
	r.i = len(r.b)
	r.Fail()
	return nil, false
}

// Str reads a string into dst; null leaves dst unchanged.
func (r *JSONReader) Str(dst *string) {
	if r.Null() {
		return
	}
	tok, plain := r.strToken()
	switch {
	case r.err != nil:
	case plain:
		*dst = string(tok[1 : len(tok)-1])
	default:
		var s string
		if json.Unmarshal(tok, &s) != nil {
			r.Fail()
			return
		}
		*dst = s
	}
}

const maxMag = 1<<64 - 1

// number consumes the next number token and returns its magnitude and
// sign. Only an integer literal in JSON's grammar that fits in uint64
// is accepted: a fraction or an exponent is invalid for every integer
// field, and so is anything that is not a number at all.
func (r *JSONReader) number() (mag uint64, neg, ok bool) {
	if r.err != nil || !r.ws() {
		r.Fail()
		return 0, false, false
	}
	i := r.i
	if r.b[i] == '-' {
		neg = true
		i++
	}
	start := i
	for ; i < len(r.b) && '0' <= r.b[i] && r.b[i] <= '9'; i++ {
		d := uint64(r.b[i] - '0')
		if mag > (maxMag-d)/10 {
			r.i = i
			r.Fail()
			return 0, false, false
		}
		mag = mag*10 + d
	}
	r.i = i
	digits := i - start
	if digits == 0 || (digits > 1 && r.b[start] == '0') {
		r.Fail()
		return 0, false, false
	}
	if i < len(r.b) {
		switch r.b[i] {
		case '.', 'e', 'E', '+', '-':
			r.Fail()
			return 0, false, false
		}
	}
	return mag, neg, true
}

// readInt reads a signed integer into dst, refusing any value that does
// not fit T; null leaves dst unchanged.
func readInt[T ~int | ~int64](r *JSONReader, dst *T) {
	if r.Null() {
		return
	}
	mag, neg, ok := r.number()
	if !ok {
		return
	}
	if (!neg && mag > 1<<63-1) || (neg && mag > 1<<63) {
		r.Fail()
		return
	}
	v := int64(mag)
	if neg {
		v = -v
	}
	if int64(T(v)) != v {
		r.Fail()
		return
	}
	*dst = T(v)
}

// readUint reads an unsigned integer into dst, refusing a sign and any
// value that does not fit T; null leaves dst unchanged.
func readUint[T ~uint8 | ~uint32 | ~uint64](r *JSONReader, dst *T) {
	if r.Null() {
		return
	}
	mag, neg, ok := r.number()
	if !ok {
		return
	}
	if neg || uint64(T(mag)) != mag {
		r.Fail()
		return
	}
	*dst = T(mag)
}

// Raw consumes the next value, of any type, and returns its bytes; it
// refuses the document unless they are valid JSON. The span aliases the
// input. It also skips the value of a key no field takes.
func (r *JSONReader) Raw() []byte {
	if r.err != nil || !r.ws() {
		r.Fail()
		return nil
	}
	start := r.i
	switch r.b[r.i] {
	case '"':
		r.strToken()
	case '{', '[':
		depth, deepest := 0, 0
		for r.err == nil && r.i < len(r.b) {
			switch r.b[r.i] {
			case '"':
				r.strToken()
				continue
			case '{', '[':
				depth++
				deepest = max(deepest, depth)
			case '}', ']':
				depth--
			}
			r.i++
			if depth == 0 {
				break
			}
		}
		if r.depth+deepest > maxDepth {
			r.Fail()
		}
	default:
		// A literal or number runs to the next delimiter.
		for r.i < len(r.b) && strings.IndexByte(" \t\n\r,:[]{}\"", r.b[r.i]) < 0 {
			r.i++
		}
	}
	if r.err != nil {
		return nil
	}
	if span := r.b[start:r.i]; json.Valid(span) {
		return span
	}
	r.Fail()
	return nil
}

// RMC decodes an RMC object into rmc, in place; null leaves it as it
// was.
func (r *JSONReader) RMC(rmc *RMC) {
	if r.Null() || !r.Open('{') {
		return
	}
	for r.More('}') {
		switch key := r.Key(); {
		case KeyIs(key, "role"):
			r.role(&rmc.Role)
		case KeyIs(key, "ref"):
			r.crr(&rmc.Ref)
		case KeyIs(key, "keyId"):
			readUint(r, &rmc.KeyID)
		case KeyIs(key, "sig"):
			r.sig(&rmc.Sig)
		default:
			r.Raw()
		}
	}
}

func (r *JSONReader) role(role *names.Role) {
	if r.Null() || !r.Open('{') {
		return
	}
	for r.More('}') {
		switch key := r.Key(); {
		case KeyIs(key, "name"):
			r.roleName(&role.Name)
		case KeyIs(key, "params"):
			r.terms(&role.Params)
		default:
			r.Raw()
		}
	}
}

func (r *JSONReader) roleName(n *names.RoleName) {
	if r.Null() || !r.Open('{') {
		return
	}
	for r.More('}') {
		switch key := r.Key(); {
		case KeyIs(key, "service"):
			r.Str(&n.Service)
		case KeyIs(key, "name"):
			r.Str(&n.Name)
		case KeyIs(key, "arity"):
			readInt(r, &n.Arity)
		default:
			r.Raw()
		}
	}
}

// terms decodes a parameter list over the slice's existing elements,
// growing it one element at a time as reflection does, so a repeated key
// sees the same stale elements beyond the length that json.Unmarshal
// would.
func (r *JSONReader) terms(dst *[]names.Term) {
	if r.Null() {
		*dst = nil
		return
	}
	if !r.Open('[') {
		return
	}
	ts := *dst
	i := 0
	for r.More(']') {
		switch {
		case i < len(ts):
		case i < cap(ts):
			ts = ts[:i+1]
		default:
			ts = append(ts, names.Term{})
		}
		r.term(&ts[i])
		i++
	}
	if i == 0 {
		ts = []names.Term{}
	}
	*dst = ts[:i]
}

func (r *JSONReader) term(t *names.Term) {
	if r.Null() || !r.Open('{') {
		return
	}
	for r.More('}') {
		switch key := r.Key(); {
		case KeyIs(key, "kind"):
			readInt(r, &t.Kind)
		case KeyIs(key, "sym"):
			r.Str(&t.Sym)
		case KeyIs(key, "num"):
			readInt(r, &t.Num)
		default:
			r.Raw()
		}
	}
}

func (r *JSONReader) crr(c *CRR) {
	if r.Null() || !r.Open('{') {
		return
	}
	for r.More('}') {
		switch key := r.Key(); {
		case KeyIs(key, "issuer"):
			r.Str(&c.Issuer)
		case KeyIs(key, "serial"):
			readUint(r, &c.Serial)
		default:
			r.Raw()
		}
	}
}

// sig decodes the signature's JSON form, an array of byte values.
func (r *JSONReader) sig(s *sign.Signature) {
	if r.Null() || !r.Open('[') {
		return
	}
	i := 0
	for r.More(']') {
		if i < len(s) {
			readUint(r, &s[i])
		} else {
			r.Raw()
		}
		i++
	}
	for ; i < len(s); i++ {
		s[i] = 0
	}
}
