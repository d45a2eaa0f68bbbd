package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The /v1/classify codec. Every measured caller sends one body shape,
// {"input":[n,…]}, exactly as json.Marshal writes a ClassifyRequest with
// only Input set, and reads one answer shape, a single Result. The
// handler parses that body and writes that answer directly; every
// other body goes to encoding/json, over the same bytes followed by
// the same read error, and every other answer through writeJSON. So
// the statuses and bodies on the wire are the ones encoding/json gives
// (DESIGN.md §14.1).

// bodyBufs recycles the buffers /v1/classify bodies are read into and
// single-result answers are encoded into.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody is the largest body buffer returned to bodyBufs. A
// Full-width canonical body is at most about 16 KB; a buffer grown past
// this by a large batch is dropped, so one 8 MB body cannot pin 8 MB.
const maxPooledBody = 64 << 10

// putBodyBuf returns buf to bodyBufs, unless it grew past
// maxPooledBody.
func putBodyBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		buf.Reset()
		bodyBufs.Put(buf)
	}
}

// canonicalPrefix opens the one body shape decodeClassifyBody parses
// itself.
const canonicalPrefix = `{"input":[`

// decodeClassifyBody decodes a /v1/classify body that was read whole
// into body; readErr is the error that ended the read, nil at EOF. It
// returns exactly what json.Decoder.Decode returns for those bytes
// followed by that error. A canonical body is parsed directly: its
// value ends inside body, and a json.Decoder stops reading there, so
// readErr cannot change its result. Anything else is handed to
// json.Decoder.
func decodeClassifyBody(body []byte, readErr error) (ClassifyRequest, error) {
	if x, ok := parseCanonical(body); ok {
		return ClassifyRequest{Input: x}, nil
	}
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	var req ClassifyRequest
	err := json.NewDecoder(src).Decode(&req)
	return req, err
}

// errReader replays a body's read error after its bytes.
type errReader struct{ err error }

// Read implements io.Reader.
func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// parseCanonical parses {"input":[n,…]} with at least one number and
// no whitespace, ignoring any bytes after the closing "]}" as
// json.Decoder does. Each n must match JSON's number grammar and is
// converted by strconv.ParseFloat, as encoding/json converts it. ok is
// false for any other body, and for a number out of float64's range,
// which encoding/json rejects with its own message. The returned
// vector is the only allocation.
func parseCanonical(b []byte) (x []float64, ok bool) {
	if !bytes.HasPrefix(b, []byte(canonicalPrefix)) {
		return nil, false
	}
	b = b[len(canonicalPrefix):]
	end := bytes.IndexByte(b, ']')
	if end < 0 || end+1 == len(b) || b[end+1] != '}' {
		return nil, false
	}
	nums := b[:end]
	x = make([]float64, 0, bytes.Count(nums, []byte{','})+1)
	for {
		tok := nums
		i := bytes.IndexByte(nums, ',')
		if i >= 0 {
			tok = nums[:i]
		}
		if !jsonNumber(tok) {
			return nil, false // also an empty array or a stray comma
		}
		v, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return nil, false
		}
		x = append(x, v)
		if i < 0 {
			return x, true
		}
		nums = nums[i+1:]
	}
}

// jsonNumber reports whether b is exactly one number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func jsonNumber(b []byte) bool {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return false
		}
		i = j
	}
	return i == len(b)
}

// skipDigits returns the index of the first non-digit in b at or after i.
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// appendClassifyResult appends the single-result answer to dst exactly
// as json.NewEncoder(w).Encode(ClassifyResponse{Result: &c}) writes it,
// trailing newline included. ok is false when a score is NaN or ±Inf,
// which encoding/json refuses to encode; dst's new bytes are then
// garbage and the caller encodes through writeJSON.
func appendClassifyResult(dst []byte, c Classification) (out []byte, ok bool) {
	dst = append(dst, `{"result":{"class":`...)
	dst = strconv.AppendInt(dst, int64(c.Class), 10)
	dst = append(dst, `,"scores":`...)
	if c.Scores == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, v := range c.Scores {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return dst, false
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONFloat(dst, v)
		}
		dst = append(dst, ']')
	}
	if c.Member != "" {
		dst = append(dst, `,"member":`...)
		dst = appendJSONString(dst, c.Member)
	}
	if c.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	return append(dst, "}}\n"...), true
}

// appendJSONFloat appends a finite v as encoding/json writes a float64:
// like ES6, 'f' for 1e-6 <= |v| < 1e21 and 'e' otherwise, with a
// negative exponent's leading zero removed (e-07 becomes e-7).
func appendJSONFloat(dst []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendJSONString appends s as a JSON string the way encoding/json's
// Encoder writes it. A string of printable ASCII with nothing to
// escape is copied; any other string is rare here (members are ids
// such as "m0") and is encoded by encoding/json itself, which escapes
// quotes, backslashes, control bytes, the HTML-sensitive <, > and &,
// U+2028, U+2029 and invalid UTF-8.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
