package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	g.Set(-1.25)
	if got := g.Value(); got != -1.25 {
		t.Fatalf("gauge = %v, want -1.25", got)
	}
	var nilC *Counter
	nilC.Inc() // must not panic
	var nilG *Gauge
	nilG.Set(1)
}

// Concurrent hammering of one counter and one histogram; run under
// -race this doubles as the data-race check on the hot paths.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	h := r.Histogram("lat")
	const workers, per = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Record(float64(w*per + i + 1))
				if i%64 == 0 {
					_ = h.Quantile(0.5) // readers race against writers
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
	s := h.Snapshot()
	if s.Min != 1 || s.Max != workers*per {
		t.Fatalf("min/max = %v/%v, want 1/%d", s.Min, s.Max, workers*per)
	}
}

func TestHistogramQuantilesUniform(t *testing.T) {
	h := NewHistogram()
	const n = 100000
	for i := 1; i <= n; i++ {
		h.Record(float64(i))
	}
	// Bucket width is 12.5% relative, so estimates must land within
	// ~15% of the true quantile.
	for _, tc := range []struct{ q, want float64 }{
		{0.10, 0.10 * n},
		{0.50, 0.50 * n},
		{0.90, 0.90 * n},
		{0.99, 0.99 * n},
	} {
		got := h.Quantile(tc.q)
		if rel := (got - tc.want) / tc.want; rel < -0.15 || rel > 0.15 {
			t.Errorf("q%.2f = %v, want %v ± 15%%", tc.q, got, tc.want)
		}
	}
	if got := h.Quantile(0); got < 1 || got > 1.2 {
		t.Errorf("q0 = %v, want ≈ min (1)", got)
	}
	if got := h.Quantile(1); got != n {
		t.Errorf("q1 = %v, want max (%d)", got, n)
	}
}

func TestHistogramQuantilesTwoPoint(t *testing.T) {
	// 90 observations at 10, 10 at 1e6: p50 must sit in the low mode's
	// bucket (within its 12.5% width), p99 exactly at the high mode
	// (its bucket midpoint clamps to the observed max).
	h := NewHistogram()
	for i := 0; i < 90; i++ {
		h.Record(10)
	}
	for i := 0; i < 10; i++ {
		h.Record(1e6)
	}
	if got := h.Quantile(0.5); got < 10 || got > 11.25 {
		t.Errorf("p50 = %v, want within the bucket of 10", got)
	}
	if got := h.Quantile(0.99); got != 1e6 {
		t.Errorf("p99 = %v, want 1e6", got)
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	h := NewHistogram()
	h.Record(0)
	h.Record(-5)
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2 (non-positive still counted)", h.Count())
	}
	s := h.Snapshot()
	if s.Min != 0 || s.Max != 0 || s.Sum != 0 {
		t.Fatalf("non-positive-only snapshot = %+v, want zero min/max/sum", s)
	}
	empty := NewHistogram()
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	var nilH *Histogram
	nilH.Record(1)
	if nilH.Count() != 0 || nilH.Quantile(0.5) != 0 {
		t.Error("nil histogram should be inert")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("hw.analytic.reads").Add(42)
	r.Gauge("trial.rate").Set(0.914)
	h := r.Histogram("span.epoch")
	for i := 1; i <= 1000; i++ {
		h.Record(float64(i))
	}
	s := r.Snapshot()
	raw, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v\n%s", err, raw)
	}
	if back.Counters["hw.analytic.reads"] != 42 {
		t.Errorf("counter lost in round trip: %+v", back.Counters)
	}
	if back.Gauges["trial.rate"] != 0.914 {
		t.Errorf("gauge lost in round trip: %+v", back.Gauges)
	}
	hs := back.Histograms["span.epoch"]
	if hs.Count != 1000 || hs.Min != 1 || hs.Max != 1000 || hs.P50 == 0 {
		t.Errorf("histogram summary lost in round trip: %+v", hs)
	}
}

func TestSpanRecordsHistogram(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("work")
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d <= 0 {
		t.Fatal("span duration not positive")
	}
	hs := r.Histogram("span.work").Snapshot()
	if hs.Count != 1 || hs.Max < float64(time.Millisecond.Nanoseconds())/2 {
		t.Fatalf("span histogram = %+v", hs)
	}
	var nilSpan *Span
	if nilSpan.End() != 0 {
		t.Error("nil span End should return 0")
	}
}

func TestParseLevelAndNewLogger(t *testing.T) {
	for _, bad := range []string{"loud", "trace"} {
		if _, err := ParseLevel(bad); err == nil {
			t.Errorf("ParseLevel(%q) should fail", bad)
		}
	}
	if lv, err := ParseLevel("WARN"); err != nil || lv.String() != "WARN" {
		t.Errorf("ParseLevel(WARN) = %v, %v", lv, err)
	}
	if _, err := NewLogger(nil, "yaml", 0); err == nil {
		t.Error("NewLogger should reject unknown formats")
	}
}

func TestDefaultLoggerIsQuietAndSwappable(t *testing.T) {
	if DebugEnabled() {
		t.Error("default logger must not emit debug")
	}
	var buf syncBuffer
	l, err := NewLogger(&buf, "json", -8) // debug and below
	if err != nil {
		t.Fatal(err)
	}
	prev := SetLogger(l)
	defer SetLogger(prev)
	if !DebugEnabled() {
		t.Fatal("installed logger should emit debug")
	}
	Logger().Debug("hello", "k", 1)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v", err)
	}
	if rec["msg"] != "hello" {
		t.Errorf("log record = %v", rec)
	}
	SetLogger(nil)
	if DebugEnabled() {
		t.Error("SetLogger(nil) should restore the quiet default")
	}
	SetLogger(prev)
}

type syncBuffer struct {
	mu sync.Mutex
	b  []byte
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.b = append(s.b, p...)
	return len(p), nil
}

func (s *syncBuffer) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.b...)
}
