package experiment

import (
	"context"
	"errors"
	"testing"

	"vortex/internal/obs"
)

// installTrace installs a fresh ring for one test and restores the
// previous one afterwards.
func installTrace(t *testing.T) *obs.TraceBuffer {
	t.Helper()
	tb := obs.NewTraceBuffer(1024)
	prev := obs.SetTracer(tb)
	t.Cleanup(func() { obs.SetTracer(prev) })
	return tb
}

// TestSweepTraceTree drives parallelTrials under a root span and
// requires the exported span tree to nest root → sweep → trial, one
// trial span per trial, all under one trace ID — the engine-level
// version of the -trace CLI acceptance.
func TestSweepTraceTree(t *testing.T) {
	tb := installTrace(t)
	const n = 11
	ctx, root := obs.StartSpanCtx(context.Background(), "experiment.test")
	vals, done, err := parallelTrials(ctx, n, func(tr Trial) (int, error) { return tr.Index, nil })
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if !done[i] || vals[i] != i {
			t.Fatalf("trial %d: done=%v val=%d", i, done[i], vals[i])
		}
	}

	spans := tb.Spans()
	byID := map[uint64]obs.SpanRecord{}
	count := map[string]int{}
	var traceID uint64
	for _, s := range spans {
		byID[s.SpanID] = s
		count[s.Name]++
		if traceID == 0 {
			traceID = s.TraceID
		} else if s.TraceID != traceID {
			t.Fatalf("span %q on trace %#x, want every span on %#x", s.Name, s.TraceID, traceID)
		}
	}
	if len(count) != 3 || count["experiment.test"] != 1 || count["sweep"] != 1 || count["trial"] != n {
		t.Fatalf("span census = %v, want 1 root, 1 sweep, %d trials", count, n)
	}
	for _, s := range spans {
		switch s.Name {
		case "sweep":
			if byID[s.ParentID].Name != "experiment.test" {
				t.Errorf("sweep parented under %q", byID[s.ParentID].Name)
			}
		case "trial":
			if byID[s.ParentID].Name != "sweep" {
				t.Errorf("trial parented under %q", byID[s.ParentID].Name)
			}
		}
	}
}

// TestScalarTrialSpansAndFlightEvents runs a panicking-then-failing
// sweep on the scalar engine and requires the crash dump to hold the
// panic, retry and abandonment events and the ring the trial spans.
func TestScalarTrialSpansAndFlightEvents(t *testing.T) {
	tb := installTrace(t)
	st := newSweepState("tracetest", Quick, 7,
		RunConfig{Retry: RetryPolicy{MaxAttempts: 2}, Partial: true})
	ctx := withSweepState(context.Background(), st)
	const n = 4
	_, done, err := parallelTrials(ctx, n, func(tr Trial) (int, error) {
		switch {
		case tr.Index == 1 && tr.Attempt == 0:
			panic("tracetest: deliberate panic")
		case tr.Index == 2:
			return 0, errors.New("always fails") // retried, then abandoned
		}
		return tr.Index, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !done[0] || !done[1] || !done[3] || done[2] {
		t.Fatalf("done = %v, want trial 2 abandoned only", done)
	}

	kinds := map[string]int{}
	for _, ev := range obs.BuildCrashDump(t.Name()).Events {
		kinds[ev.Kind+"/"+ev.Name]++
	}
	if kinds["panic/trial"] != 1 {
		t.Errorf("panic events = %d, want 1 (kinds: %v)", kinds["panic/trial"], kinds)
	}
	// Trial 1 retries once after its panic; trial 2 retries once before
	// exhausting MaxAttempts=2.
	if kinds["retry/trial"] != 2 {
		t.Errorf("retry events = %d, want 2 (kinds: %v)", kinds["retry/trial"], kinds)
	}
	if kinds["trial.abandoned/trial"] != 1 {
		t.Errorf("abandoned events = %d, want 1 (kinds: %v)", kinds["trial.abandoned/trial"], kinds)
	}
	// Every attempt ran under a leaf span: 4 first attempts + 2 retries.
	trialSpans := 0
	for _, s := range tb.Spans() {
		if s.Name == "trial" {
			trialSpans++
		}
	}
	if trialSpans != n+2 {
		t.Errorf("trial spans = %d, want %d", trialSpans, n+2)
	}
}

// TestCheckpointResumeEmitsEvent replays a checkpointed sweep and
// requires the resume event in the crash dump.
func TestCheckpointResumeEmitsEvent(t *testing.T) {
	installTrace(t)
	dir := t.TempDir()
	mk := func() context.Context {
		st := newSweepState("evtest", Quick, 7, RunConfig{CheckpointDir: dir})
		store, err := openCheckpoint(dir, "evtest", Quick, 7)
		if err != nil {
			t.Fatal(err)
		}
		st.store = store
		return withSweepState(context.Background(), st)
	}
	if _, _, err := parallelTrials(mk(), 4, func(tr Trial) (int, error) { return tr.Index, nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := parallelTrials(mk(), 4, func(tr Trial) (int, error) { return tr.Index, nil }); err != nil {
		t.Fatal(err)
	}
	evs := obs.BuildCrashDump(t.Name()).Events
	found := false
	for _, ev := range evs {
		if ev.Kind == "checkpoint" && ev.Name == "resume" && ev.Attrs["trials"] == "4" {
			found = true
		}
	}
	if !found {
		t.Errorf("no checkpoint resume event: %+v", evs)
	}
}
