package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
)

// sameVector reports whether a and b are both nil, or both non-nil with
// the same float bits element for element.
func sameVector(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzDecodeClassifyBody checks decodeClassifyBody against
// encoding/json: for any body, both accept or both reject (with the
// same message), and an accepted body decodes to the same Input and
// Inputs — nil-ness, lengths and every float's bits. The seed corpus in
// testdata/fuzz covers number edge cases, invalid numbers, key folding
// and the non-canonical shapes that must reach the fallback.
func FuzzDecodeClassifyBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := decodeClassifyBody(body, nil)
		var want ClassifyRequest
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("body %q: decode error %v, encoding/json %v", body, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("body %q: error %q, encoding/json %q", body, gotErr, wantErr)
			}
			return
		}
		if !sameVector(got.Input, want.Input) {
			t.Fatalf("body %q: input %v, encoding/json %v", body, got.Input, want.Input)
		}
		if (got.Inputs == nil) != (want.Inputs == nil) || len(got.Inputs) != len(want.Inputs) {
			t.Fatalf("body %q: inputs %v, encoding/json %v", body, got.Inputs, want.Inputs)
		}
		for i := range want.Inputs {
			if !sameVector(got.Inputs[i], want.Inputs[i]) {
				t.Fatalf("body %q: inputs[%d] %v, encoding/json %v", body, i, got.Inputs[i], want.Inputs[i])
			}
		}
	})
}

// canonicalBody is the body json.Marshal writes for a single input,
// the one shape parseCanonical parses itself.
func canonicalBody(t testing.TB, x []float64) []byte {
	t.Helper()
	b, err := json.Marshal(ClassifyRequest{Input: x})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte(canonicalPrefix)) {
		t.Fatalf("json.Marshal wrote %q, not the canonical shape", b)
	}
	return b
}

// randomScore draws a finite float64 from a spread of magnitudes and
// signs, including ±0, subnormals and values at the format cutoffs.
func randomScore(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return rng.Float64()
	case 1:
		return -rng.Float64() * 10
	case 2:
		return math.Ldexp(rng.Float64(), rng.Intn(2098)-1074) // any binary exponent
	case 3:
		return math.Float64frombits(rng.Uint64() &^ (0x7ff << 52)) // subnormal or ±0
	case 4:
		return []float64{1e-6, 1e21, math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0)}[rng.Intn(4)]
	default:
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return math.MaxFloat64
		}
		return v
	}
}

// TestCanonicalDecodeMatchesEncodingJSON: every canonical body, as
// json.Marshal writes it for the seeded random vectors the server sees
// and for the number edge cases, is parsed directly (not handed to
// encoding/json) and decodes to encoding/json's vector bit for bit.
func TestCanonicalDecodeMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := [][]float64{
		{0}, {math.Copysign(0, -1)}, {5e-324}, {2.2250738585072014e-308},
		{math.MaxFloat64, -math.MaxFloat64}, {1e-7, 1e21, 1e20, 1e-6},
	}
	for n := 0; n < 200; n++ {
		x := make([]float64, 1+rng.Intn(800))
		for i := range x {
			if n%2 == 0 {
				x[i] = randomScore(rng)
			} else {
				x[i] = float64(rng.Intn(256)) / 255 // a rendered pixel
			}
		}
		xs = append(xs, x)
	}
	for _, x := range xs {
		body := canonicalBody(t, x)
		got, ok := parseCanonical(body)
		if !ok {
			t.Fatalf("canonical body %.80q fell back to encoding/json", body)
		}
		var want ClassifyRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if !sameVector(got, want.Input) || !sameVector(got, x) {
			t.Fatalf("body %.80q decoded to %v, encoding/json %v", body, got, want.Input)
		}
	}
}

// TestClassifyResultMatchesEncoder pins the single-result answer's
// bytes to json.NewEncoder(w).Encode(ClassifyResponse{Result: &c}):
// scores at the 'f'/'e' cutoffs, ±0, subnormals and ±MaxFloat64,
// negative classes, nil and empty scores, Degraded on and off, and
// members that need escaping; then seeded random answers.
func TestClassifyResultMatchesEncoder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cutoffs := []float64{
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e21, math.Nextafter(1e21, 0), -1e21,
		1e-7, 1.5e-10, 1e20, 1e22, 123456789e-15,
	}
	extremes := []float64{0, negZero, 5e-324, -5e-324, 2.2250738585072014e-308,
		math.Nextafter(2.2250738585072014e-308, 0), math.MaxFloat64, -math.MaxFloat64}
	cases := []Classification{
		{Class: 3, Scores: []float64{0.25, 1, 0.125}, Member: "m0"},
		{Class: 0, Scores: cutoffs, Member: "m1"},
		{Class: 7, Scores: extremes},
		{Class: -1, Scores: []float64{-0.5}, Member: "m2", Degraded: true},
		{Class: math.MinInt32, Scores: nil},
		{Class: 2, Scores: []float64{}, Degraded: true},
	}
	// Each byte or rune encoding/json escapes, alone in a member, then
	// the printable ASCII it copies.
	for _, m := range []string{`"`, `\`, "<", ">", "&", "\u2028", "\u2029", "\xff", "\xc3",
		"\x00", "\t", "\n", "\x1f", "é", "\x7f", " ~"} {
		cases = append(cases, Classification{Class: 1, Scores: []float64{0.1}, Member: "m" + m + "0"})
	}
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 500; n++ {
		c := Classification{Class: rng.Intn(21) - 10, Degraded: rng.Intn(2) == 0}
		if k := rng.Intn(12); k > 0 {
			c.Scores = make([]float64, k-1)
			for i := range c.Scores {
				c.Scores[i] = randomScore(rng)
			}
		}
		if rng.Intn(3) > 0 {
			c.Member = string([]byte{'m', byte('0' + rng.Intn(10))})
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(ClassifyResponse{Result: &c}); err != nil {
			t.Fatal(err)
		}
		got, ok := appendClassifyResult([]byte("prefix"), c)
		if !ok {
			t.Fatalf("%+v: a finite answer was refused", c)
		}
		if got := got[len("prefix"):]; !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%+v:\n got  %s\n want %s", c, got, want.Bytes())
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := appendClassifyResult(nil, Classification{Scores: []float64{0, v}}); ok {
			t.Errorf("score %v encoded; encoding/json refuses it", v)
		}
	}
}

// TestJSONCodecAllocs: decoding a canonical 49-input (Quick) or
// 784-input (Full) body allocates only the returned vector, and
// encoding the single-result answer into a reused buffer allocates
// nothing.
func TestJSONCodecAllocs(t *testing.T) {
	for _, inputs := range []int{49, 784} {
		x := make([]float64, inputs)
		for i := range x {
			x[i] = float64((i*37)%256) / 255
		}
		body := canonicalBody(t, x)
		decode := testing.AllocsPerRun(100, func() {
			req, err := decodeClassifyBody(body, nil)
			if err != nil || len(req.Input) != inputs {
				t.Fatalf("decode: %d values, %v", len(req.Input), err)
			}
		})
		if decode != 1 {
			t.Errorf("%d-input canonical decode allocates %v times, want 1 (the vector)", inputs, decode)
		}
	}
	c := Classification{Class: 4, Scores: []float64{0.1, -2.5e-7, 3, 0, 1e22, 0.333, 7, 8, 9, 10}, Member: "m2", Degraded: true}
	out := make([]byte, 0, 512)
	encode := testing.AllocsPerRun(100, func() {
		var ok bool
		out, ok = appendClassifyResult(out[:0], c)
		if !ok {
			t.Fatal("answer refused")
		}
	})
	if encode != 0 {
		t.Errorf("single-result encode allocates %v times, want 0", encode)
	}
}

// TestClassifyBodyReadErrors: a body whose read ends in an error — torn
// by the client or cut at the 8 MB limit — gets the status and body
// that encoding/json gives when it decodes the same stream through the
// same http.MaxBytesReader. A value that ends before the error is
// answered; one that does not is rejected with the read error.
func TestClassifyBodyReadErrors(t *testing.T) {
	s, _ := startServer(t, Config{Inputs: 4, Engine: finiteEngine{}})
	h := s.httpHandler()
	errTorn := errors.New("connection reset mid-body")
	torn := func(body string, err error) func() io.Reader {
		return func() io.Reader { return io.MultiReader(strings.NewReader(body), iotest.ErrReader(err)) }
	}
	sized := func(body string) func() io.Reader {
		return func() io.Reader { return strings.NewReader(body) }
	}
	const canonical = `{"input":[0.5,1,0,0.25]}`
	cases := []struct {
		name string
		body func() io.Reader
	}{
		{"torn canonical", torn(`{"input":[0.5,1,0`, errTorn)},
		{"torn after canonical", torn(canonical+"xx", errTorn)},
		{"torn spaced", torn(`{ "input": [0.5, 1, 0, 0.25] `, errTorn)},
		{"short", torn(`{"input":[0.5,1,0,0.2`, io.ErrUnexpectedEOF)},
		{"oversized", sized(`{"input":[` + strings.Repeat("0,", maxJSONBody/2) + `0]}`)},
		{"oversized after canonical", sized(canonical + strings.Repeat(" ", maxJSONBody))},
		{"oversized after batch", sized(`{"inputs":[[0.5,1,0,0.25]]}` + strings.Repeat(" ", maxJSONBody))},
	}
	cls := Classification{Class: 1, Scores: []float64{0.5, 1, 0.25}, Member: "m0"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", tc.body()))

			var req ClassifyRequest
			err := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(tc.body()), maxJSONBody)).Decode(&req)
			code, want := http.StatusOK, any(ClassifyResponse{Result: &cls})
			switch {
			case err != nil:
				code, want = http.StatusBadRequest, ErrorResponse{Error: "bad request body: " + err.Error()}
			case req.Inputs != nil:
				want = ClassifyResponse{Results: []Classification{cls}}
			}
			var body bytes.Buffer
			json.NewEncoder(&body).Encode(want)
			if rec.Code != code || !bytes.Equal(rec.Body.Bytes(), body.Bytes()) {
				t.Fatalf("answered %d %s, want %d %s", rec.Code, rec.Body.Bytes(), code, body.Bytes())
			}
		})
	}
}
