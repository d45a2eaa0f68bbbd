package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// withTracer installs a fresh trace buffer for one test and restores
// the previous one afterwards.
func withTracer(t *testing.T, capacity int) *TraceBuffer {
	t.Helper()
	tb := NewTraceBuffer(capacity)
	prev := SetTracer(tb)
	t.Cleanup(func() { SetTracer(prev) })
	return tb
}

func TestNewIDNonzeroAndDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		id := newID()
		if id == 0 {
			t.Fatal("newID returned zero")
		}
		if seen[id] {
			t.Fatalf("newID repeated %#x after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestStartSpanCtxBuildsTree(t *testing.T) {
	tb := withTracer(t, 64)
	ctx, root := StartSpanCtx(context.Background(), "root")
	cctx, child := StartSpanCtx(ctx, "child")
	leaf := StartSpanFrom(cctx, "leaf")
	leaf.End()
	child.End()
	root.End()

	spans := tb.Spans()
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	r, c, l := byName["root"], byName["child"], byName["leaf"]
	if r.TraceID == 0 || r.TraceID != c.TraceID || c.TraceID != l.TraceID {
		t.Errorf("trace IDs diverge: root=%#x child=%#x leaf=%#x", r.TraceID, c.TraceID, l.TraceID)
	}
	if r.ParentID != 0 {
		t.Errorf("root has parent %#x, want 0", r.ParentID)
	}
	if c.ParentID != r.SpanID {
		t.Errorf("child parent = %#x, want root span %#x", c.ParentID, r.SpanID)
	}
	if l.ParentID != c.SpanID {
		t.Errorf("leaf parent = %#x, want child span %#x", l.ParentID, c.SpanID)
	}
}

func TestStartSpanFromStartsFreshTrace(t *testing.T) {
	withTracer(t, 64)
	s := StartSpanFrom(context.Background(), "orphan")
	if s == nil {
		t.Fatal("nil span while enabled")
	}
	if s.traceID == 0 || s.spanID == 0 || s.parentID != 0 {
		t.Fatalf("orphan identity = trace %#x span %#x parent %#x", s.traceID, s.spanID, s.parentID)
	}
}

func TestTraceBufferWrapAndDropped(t *testing.T) {
	tb := NewTraceBuffer(64)
	for i := 0; i < 100; i++ {
		tb.add(&SpanRecord{SpanID: uint64(i + 1), Name: "s", Start: time.Unix(0, int64(i))})
	}
	if tb.Len() != 64 {
		t.Errorf("Len = %d, want 64", tb.Len())
	}
	if tb.Dropped() != 36 {
		t.Errorf("Dropped = %d, want 36", tb.Dropped())
	}
	spans := tb.Spans()
	if len(spans) != 64 {
		t.Fatalf("Spans returned %d records, want 64", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start.Before(spans[i-1].Start) {
			t.Fatal("Spans not sorted by start time")
		}
	}
}

// TestWriteChromeTraceParsesAndNests also pins that a point event
// shares the ring (Len counts it) but stays out of Spans and the export.
func TestWriteChromeTraceParsesAndNests(t *testing.T) {
	tb := withTracer(t, 64)
	ctx, root := StartSpanCtx(context.Background(), "root", "k", "v")
	_, child := StartSpanCtx(ctx, "child")
	RecordEvent("retry", "trial", "trial", 1)
	child.End()
	root.End()
	if tb.Len() != 3 || len(tb.Spans()) != 2 {
		t.Fatalf("ring holds %d entries, %d spans; want 3, 2", tb.Len(), len(tb.Spans()))
	}

	var buf bytes.Buffer
	if err := tb.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("exported %d events, want 2", len(doc.TraceEvents))
	}
	byName := map[string]int{}
	for i, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Errorf("event %s: ph=%q dur=%v", e.Name, e.Ph, e.Dur)
		}
		byName[e.Name] = i
	}
	r, c := doc.TraceEvents[byName["root"]], doc.TraceEvents[byName["child"]]
	if c.Args["parent"] != r.Args["span"] {
		t.Errorf("child parent arg %v, want root span %v", c.Args["parent"], r.Args["span"])
	}
	if c.Args["trace"] != r.Args["trace"] {
		t.Errorf("trace args diverge: %v vs %v", c.Args["trace"], r.Args["trace"])
	}
	// The sequential child shares its parent's lane.
	if c.Tid != r.Tid {
		t.Errorf("sequential child on lane %d, parent on %d", c.Tid, r.Tid)
	}
	if r.Args["k"] != "v" {
		t.Errorf("root attrs lost: %v", r.Args)
	}
}

func TestWriteChromeTraceSpillsConcurrentSiblings(t *testing.T) {
	tb := NewTraceBuffer(64)
	base := time.Now()
	// Two children overlapping in time under one parent: the second must
	// move off the parent's lane.
	tb.add(&SpanRecord{TraceID: 1, SpanID: 10, Name: "parent", Start: base, Dur: 10 * time.Millisecond})
	tb.add(&SpanRecord{TraceID: 1, SpanID: 11, ParentID: 10, Name: "a", Start: base.Add(time.Millisecond), Dur: 5 * time.Millisecond})
	tb.add(&SpanRecord{TraceID: 1, SpanID: 12, ParentID: 10, Name: "b", Start: base.Add(2 * time.Millisecond), Dur: 5 * time.Millisecond})
	var buf bytes.Buffer
	if err := tb.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	tid := map[string]int{}
	for _, e := range doc.TraceEvents {
		tid[e.Name] = e.Tid
	}
	if tid["a"] != tid["parent"] {
		t.Errorf("first child on lane %d, parent on %d", tid["a"], tid["parent"])
	}
	if tid["b"] == tid["parent"] {
		t.Error("overlapping sibling packed onto the parent's lane")
	}
}

// TestTracingEnabledStates pins what installing a ring switches: with
// none, spans still time into their histograms; with one, a context
// span's End writes exactly one entry and a plain span none.
func TestTracingEnabledStates(t *testing.T) {
	prev := SetTracer(nil)
	t.Cleanup(func() { SetTracer(prev) })
	r := NewRegistry()
	if _, sp := r.StartSpanCtx(context.Background(), "off"); Tracer() != nil || sp.End() <= 0 || r.Histogram("span.off").Count() != 1 {
		t.Error("without a ring, a span must still time into its histogram")
	}
	tb := NewTraceBuffer(64)
	SetTracer(tb)
	_, sp := r.StartSpanCtx(context.Background(), "on")
	sp.End()
	r.StartSpan("plain").End()
	if Tracer() != tb || tb.Len() != 1 {
		t.Errorf("a context span and a plain span wrote %d ring entries, want 1", tb.Len())
	}
}

// TestWriteChromeTraceQuotesAsJSON: a span name and an attr holding
// control bytes and invalid UTF-8 must leave the export valid JSON and
// come back with only the invalid bytes replaced.
func TestWriteChromeTraceQuotesAsJSON(t *testing.T) {
	tb := NewTraceBuffer(64)
	const name, key, val = "ctl\x01bell\abad\xffutf8", "k\x02\xfe", "v\x1f\xc3"
	tb.add(&SpanRecord{SpanID: 1, Name: name, Start: time.Now(), Attrs: []any{key, val}})
	var buf bytes.Buffer
	if err := tb.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != 1 {
		t.Fatalf("export does not decode to one event: %v\n%s", err, buf.String())
	}
	valid := func(s string) string { return strings.ToValidUTF8(s, "\uFFFD") }
	if ev := doc.TraceEvents[0]; ev.Name != valid(name) || ev.Args[valid(key)] != valid(val) {
		t.Errorf("name %q, args %q; want %q and %q: %q", ev.Name, ev.Args, valid(name), valid(key), valid(val))
	}
}
