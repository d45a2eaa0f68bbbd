package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRecordAndEvents(t *testing.T) {
	tb := withTracer(t, 64)
	RecordEvent("retry", "trial", "trial", 3, "err", errors.New("boom"), "elapsed", 2*time.Millisecond)
	RecordEvent("breaker", "array0", "from", "closed", "to", "open", "unpaired")
	evs := BuildCrashDump("events").Events
	if len(evs) != 2 || evs[0].Kind != "retry" || evs[0].Name != "trial" || evs[0].Span != "" || evs[1].Kind != "breaker" {
		t.Fatalf("dump events = %+v, want retry then breaker, no span IDs", evs)
	}
	// Attrs are stringified at record time; an unpaired key is dropped.
	if a := evs[0].Attrs; a["trial"] != "3" || a["err"] != "boom" || a["elapsed"] != "2ms" || len(evs[1].Attrs) != 2 {
		t.Errorf("attrs = %v, %v", a, evs[1].Attrs)
	}
	for _, a := range tb.recent(1)[0].Attrs {
		if _, ok := a.(string); !ok {
			t.Errorf("retained attr %v is a %T, want a string", a, a)
		}
	}
}

func TestFlightWrapAndDropped(t *testing.T) {
	tb := withTracer(t, 64)
	for i := 0; i < 200; i++ {
		RecordEvent("k", "n", "i", i)
	}
	d := BuildCrashDump("wrap")
	if tb.Len() != 64 || tb.Dropped() != 136 || len(d.Events) != 64 || d.EventsDropped != 136 {
		t.Fatalf("Len %d, Dropped %d, dump %d events with %d dropped; want 64 and 136",
			tb.Len(), tb.Dropped(), len(d.Events), d.EventsDropped)
	}
	// The retained window is the most recent events, in order.
	if first, last := d.Events[0].Attrs["i"], d.Events[63].Attrs["i"]; first != "136" || last != "199" {
		t.Errorf("window = [%s, %s], want [136, 199]", first, last)
	}
}

// The dump window is the newest dumpEntries entries by ring order,
// listed by start time: a root span that started first but ended last
// heads it. events_dropped counts the older entries.
func TestCrashDumpWindowKeepsNewest(t *testing.T) {
	withTracer(t, 8192)
	_, root := StartSpanCtx(context.Background(), "root", "k", "v")
	const n = 300
	for i := 0; i < n; i++ {
		RecordEvent("retry", "trial", "i", i)
	}
	root.End()
	d := BuildCrashDump("window")
	if len(d.Events) != dumpEntries || d.EventsDropped != n+1-dumpEntries {
		t.Fatalf("dump holds %d entries, %d dropped; want %d, %d", len(d.Events), d.EventsDropped, dumpEntries, n+1-dumpEntries)
	}
	if h := d.Events[0]; h.Kind != "span" || h.Span != hexID(root.spanID) || h.Trace != hexID(root.traceID) ||
		h.Parent != "" || h.Attrs["elapsed"] == "" || h.Attrs["k"] != "v" {
		t.Errorf("dump head = %+v, want the root span with its IDs, elapsed and attrs", h)
	}
	for k, ev := range d.Events[1:] {
		if want := strconv.Itoa(n - dumpEntries + 1 + k); ev.Kind != "retry" || ev.Attrs["i"] != want {
			t.Fatalf("entry %d = %+v, want retry %s", k+1, ev, want)
		}
	}
}

func TestFlightNilAndDisabledAreInert(t *testing.T) {
	var tb *TraceBuffer
	if tb.Len() != 0 || tb.Dropped() != 0 || tb.Spans() != nil || tb.recent(dumpEntries) != nil {
		t.Error("nil ring not inert")
	}
}

// With no ring installed, events and spans record nothing and a dump
// has an empty window.
func TestRecordEventWithoutRecorderIsInert(t *testing.T) {
	prev := SetTracer(nil)
	defer SetTracer(prev)
	RecordEvent("k", "n", "a", 1)
	ctx, sp := StartSpanCtx(context.Background(), "s")
	_, child := StartSpanCtx(ctx, "child")
	child.End()
	sp.End()
	if d := BuildCrashDump("none"); d.Events == nil || len(d.Events)+int(d.EventsDropped) != 0 {
		t.Errorf("dump without a ring = %+v", d.Events)
	}
}

// TestFlightConcurrentRecord runs under -race (make race does).
func TestFlightConcurrentRecord(t *testing.T) {
	tb := withTracer(t, 128)
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				RecordEvent("hammer", "worker", "w", w, "i", i)
			}
		}(w)
	}
	wg.Wait()
	d := BuildCrashDump("hammer")
	if tb.Len() != 128 || len(d.Events) != 128 || d.EventsDropped != workers*each-128 {
		t.Fatalf("Len %d, dump %d events with %d dropped", tb.Len(), len(d.Events), d.EventsDropped)
	}
	for i, ev := range d.Events {
		if ev.Kind != "hammer" || len(ev.Attrs) != 2 || (i > 0 && ev.Time.Before(d.Events[i-1].Time)) {
			t.Fatalf("entry %d = %+v: wrong kind or attrs, or out of time order", i, ev)
		}
	}
}

func TestBuildCrashDumpCarriesManifestAndEvents(t *testing.T) {
	withTracer(t, 64)
	SetManifest(Manifest{Command: "test", Experiment: "exp1", Seed: 7,
		GoVersion: "go-test", GOMAXPROCS: 4})
	t.Cleanup(func() { manifest.Store(nil) })
	RecordEvent("panic", "trial", "trial", 3)

	d := BuildCrashDump("unit test")
	if d.Reason != "unit test" {
		t.Errorf("reason = %q", d.Reason)
	}
	if d.Manifest == nil || d.Manifest.Experiment != "exp1" || d.Manifest.Seed != 7 {
		t.Errorf("manifest = %+v", d.Manifest)
	}
	found := false
	for _, ev := range d.Events {
		if ev.Kind == "panic" && ev.Attrs["trial"] == "3" {
			found = true
		}
	}
	if !found {
		t.Errorf("panic event missing from dump: %+v", d.Events)
	}
}

func TestWriteCrashDumpIsValidJSON(t *testing.T) {
	withTracer(t, 64)
	_, sp := StartSpanCtx(context.Background(), "sweep", "gain", math.Inf(1))
	RecordEvent("retry", "trial", "err", errors.New("boom"), "gain", math.Inf(-1))
	sp.End()
	var buf bytes.Buffer
	if err := WriteCrashDump(&buf, "json test"); err != nil {
		t.Fatal(err)
	}
	var back CrashDump
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("crash dump does not parse: %v\n%s", err, buf.String())
	}
	if back.Reason != "json test" || len(back.Events) != 2 {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestDumpCrashWritesFile(t *testing.T) {
	dir := t.TempDir()
	withTracer(t, 64)
	path, err := DumpCrash(dir, "my/exp name", "file test")
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Base(path)
	if !strings.HasPrefix(base, "crash-my_exp_name-") || !strings.HasSuffix(base, ".json") {
		t.Errorf("dump filename = %q", base)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back CrashDump
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("dump file does not parse: %v", err)
	}
}

func TestCurrentManifestUnset(t *testing.T) {
	prev := manifest.Swap(nil)
	t.Cleanup(func() { manifest.Store(prev) })
	if _, ok := CurrentManifest(); ok {
		t.Error("CurrentManifest reported a manifest when none is set")
	}
}
