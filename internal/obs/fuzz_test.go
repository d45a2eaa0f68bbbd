package obs

import (
	"bytes"
	"testing"
)

// FuzzValidatePrometheus: the validator behind cmd/promcheck never
// panics on arbitrary bytes, and a registry with fixed names but fuzzed
// counter, gauge and histogram values renders an exposition that
// validates. The seed corpus is in testdata/fuzz.
func FuzzValidatePrometheus(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, count int64, gauge, h1, h2 float64) {
		ValidatePrometheus(raw)

		r := NewRegistry()
		r.Counter("fuzz.reads").Add(count)
		r.Gauge("fuzz.level").Set(gauge)
		h := r.Histogram("fuzz.read_ns")
		h.Record(h1)
		h.Record(h2)
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if err := ValidatePrometheus(buf.Bytes()); err != nil {
			t.Fatalf("exposition of fuzzed values does not validate: %v\n%s", err, buf.String())
		}
	})
}
