package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Hierarchical tracing. A span started with StartSpanCtx carries a
// 64-bit trace ID shared by every span of one logical operation (an
// experiment run, a fleet maintenance pass) plus its own span ID and
// its parent's span ID, all drawn from a process-wide splitmix64
// stream. The IDs ride a context.Context, so a driver that threads ctx
// through its fan-out gets a real span tree — sweep → trial —
// with no extra plumbing. Ended spans and point events (RecordEvent)
// go to one optional bounded ring, the installed TraceBuffer, read by
// the Chrome trace_event export (chrome://tracing, Perfetto) and by
// crash dumps; without one the IDs still propagate but nothing is
// retained, so tracing costs one atomic load where it is not used.

// idState is the splitmix64 generator state behind trace and span IDs.
// Seeded from the clock once so concurrent processes produce disjoint
// streams; stepping is one atomic add plus the mixer, and the output is
// never zero (zero means "no ID" throughout the package).
var idState atomic.Uint64

func init() { idState.Store(uint64(time.Now().UnixNano()) | 1) }

// newID returns the next nonzero splitmix64 ID.
func newID() uint64 {
	for {
		x := idState.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// SpanRecord is one ring entry: a completed span (the identity triple,
// the histogram/span name, wall-clock start, duration and the span's
// slog-style attr pairs) or a point event from RecordEvent (its kind,
// name, record time and stringified attrs; zero IDs and duration).
type SpanRecord struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64 // zero for a root span
	Kind     string // "" for a span; the event kind for a point event
	Name     string
	Start    time.Time
	Dur      time.Duration
	Attrs    []any
}

// TraceBuffer is a bounded lock-free ring of recent spans and point
// events. Add is an atomic counter bump plus one pointer store, so the
// trial fan-out can record from every worker; once full, the oldest
// entries are overwritten. Snapshots walk the slots and sort by start.
type TraceBuffer struct {
	slots []atomic.Pointer[SpanRecord]
	mask  uint64
	next  atomic.Uint64 // entries ever added
}

// NewTraceBuffer returns a buffer retaining the most recent capacity
// entries (rounded up to a power of two, minimum 64).
func NewTraceBuffer(capacity int) *TraceBuffer {
	n := 64
	for n < capacity {
		n <<= 1
	}
	return &TraceBuffer{slots: make([]atomic.Pointer[SpanRecord], n), mask: uint64(n - 1)}
}

// add retains one entry, overwriting the oldest when full.
func (tb *TraceBuffer) add(rec *SpanRecord) {
	i := tb.next.Add(1) - 1
	tb.slots[i&tb.mask].Store(rec)
}

// Len returns the number of entries retained, events included.
func (tb *TraceBuffer) Len() int {
	if tb == nil {
		return 0
	}
	return int(min(tb.next.Load(), uint64(len(tb.slots))))
}

// Dropped returns how many entries have been overwritten by newer ones.
func (tb *TraceBuffer) Dropped() int64 {
	if tb == nil {
		return 0
	}
	n := tb.next.Load()
	return int64(n - min(n, uint64(len(tb.slots))))
}

// recent returns the newest n entries by ring position, sorted by start
// time with ties in ring order. Picking by ring position keeps a root
// span, recorded when it ends, in the window of its children. The copy
// is taken slot by slot, so entries recorded concurrently may or may
// not appear; every returned record is complete.
func (tb *TraceBuffer) recent(n int) []SpanRecord {
	if tb == nil {
		return nil
	}
	next := tb.next.Load()
	lo := next - min(next, uint64(min(n, len(tb.slots)))) // first ring position kept
	out := make([]SpanRecord, 0, next-lo)
	for i := lo; i < next; i++ {
		if rec := tb.slots[i&tb.mask].Load(); rec != nil {
			out = append(out, *rec)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Spans returns the retained spans, not the events, by start time.
func (tb *TraceBuffer) Spans() []SpanRecord {
	all := tb.recent(tb.Len())
	spans := all[:0]
	for _, rec := range all {
		if rec.Kind == "" {
			spans = append(spans, rec)
		}
	}
	return spans
}

// tracer is the process-default trace buffer; nil (the default) retains
// nothing.
var tracer atomic.Pointer[TraceBuffer]

// SetTracer installs tb as the process-default trace buffer (nil
// removes it) and returns the previous one.
func SetTracer(tb *TraceBuffer) *TraceBuffer { return tracer.Swap(tb) }

// Tracer returns the installed trace buffer, nil when tracing is off.
func Tracer() *TraceBuffer { return tracer.Load() }

// RecordEvent records one point event — a retry, a recovered panic, a
// breaker transition — into the installed ring; a no-op (one atomic
// load) when none is installed. A non-empty kind tells it from a span.
// Attrs are stringified at record time (an unpaired key is dropped), so
// a retained event never holds a live object.
func RecordEvent(kind, name string, attrs ...any) {
	tb := tracer.Load()
	if tb == nil {
		return
	}
	strs := make([]any, len(attrs)&^1)
	for i := range strs {
		strs[i] = fmt.Sprint(attrs[i])
	}
	tb.add(&SpanRecord{Kind: kind, Name: name, Start: time.Now(), Attrs: strs})
}

// WriteChromeTrace renders the retained spans, not the point events,
// as Chrome trace_event JSON ("X" complete events, microsecond
// timestamps), loadable in chrome://tracing and Perfetto. Every event's
// args carry the trace, span and parent IDs in hex plus the span's
// attrs, so the tree is machine-recoverable even where the visual
// nesting is approximate.
//
// Thread (tid) assignment packs each parent's children onto the
// parent's row while they do not overlap in time and spills concurrent
// siblings onto fresh rows, so a sequential run renders as one nested
// timeline and a parallel fan-out as one row per concurrent worker.
func (tb *TraceBuffer) WriteChromeTrace(w io.Writer) error {
	spans := tb.Spans()
	laneOf := map[uint64]int{0: 0}         // span ID -> tid; 0 is the virtual root lane
	lastChildEnd := map[uint64]time.Time{} // parent span ID -> end of last child sharing its lane
	lanes := 1
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, s := range spans {
		parentLane, haveParent := laneOf[s.ParentID]
		lane := -1
		if haveParent {
			if last, ok := lastChildEnd[s.ParentID]; !ok || !s.Start.Before(last) {
				lane = parentLane
				lastChildEnd[s.ParentID] = s.Start.Add(s.Dur)
			}
		}
		if lane < 0 {
			lane = lanes
			lanes++
		}
		laneOf[s.SpanID] = lane
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		if err := writeChromeEvent(bw, s, lane); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// writeChromeEvent emits one "X" complete event.
func writeChromeEvent(w io.Writer, s SpanRecord, tid int) error {
	ts := float64(s.Start.UnixNano()) / 1e3
	dur := float64(s.Dur.Nanoseconds()) / 1e3
	if dur <= 0 {
		dur = 0.001 // zero-width slices are dropped by some viewers
	}
	_, err := fmt.Fprintf(w,
		`{"name":%s,"cat":"vortex","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"trace":"%016x","span":"%016x","parent":"%016x"%s}}`,
		jsonString(s.Name), ts, dur, tid, s.TraceID, s.SpanID, s.ParentID, attrArgs(s.Attrs))
	return err
}

// attrArgs renders slog-style attr pairs as extra JSON args, values
// stringified so arbitrary types (durations, errors) stay valid JSON.
func attrArgs(attrs []any) string {
	out := ""
	for i := 0; i+1 < len(attrs); i += 2 {
		out += "," + jsonString(fmt.Sprint(attrs[i])) + ":" + jsonString(fmt.Sprint(attrs[i+1]))
	}
	return out
}

// jsonString quotes s as a JSON string; invalid UTF-8 becomes U+FFFD.
func jsonString(s string) string {
	b, _ := json.Marshal(s) // a string always marshals
	return string(b)
}
