package experiment

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"vortex/internal/obs"
)

// TestCrashDemoFailsWithoutRetries pins the fixture's contract: the
// default run dies on the deliberate panic with a *TrialError naming
// the panicking trial.
func TestCrashDemoFailsWithoutRetries(t *testing.T) {
	r, ok := Lookup("crashdemo")
	if !ok {
		t.Fatal("crashdemo not registered")
	}
	_, err := r.Run(context.Background(), Quick, 7)
	if err == nil {
		t.Fatal("crashdemo succeeded without retries, want a trial panic")
	}
	var te *TrialError
	if !errors.As(err, &te) {
		t.Fatalf("error is %T (%v), want *TrialError", err, err)
	}
	if te.Index != crashDemoTrials(Quick)/2 {
		t.Errorf("panicking trial = %d, want %d", te.Index, crashDemoTrials(Quick)/2)
	}
}

// TestCrashDemoSurvivesWithRetries checks the demo's second act: one
// retry heals the panicking trial and every value comes out finite and
// rendered in all three result forms.
func TestCrashDemoSurvivesWithRetries(t *testing.T) {
	r, ok := Lookup("crashdemo")
	if !ok {
		t.Fatal("crashdemo not registered")
	}
	ctx := WithRunConfig(context.Background(), RunConfig{Retry: RetryPolicy{MaxAttempts: 2}})
	res, err := r.Run(ctx, Quick, 7)
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := res.(*RunResult)
	if !ok {
		t.Fatalf("result is %T, want *RunResult", res)
	}
	cd, ok := rr.Unwrap().(*CrashDemoResult)
	if !ok {
		t.Fatalf("result is %T, want *CrashDemoResult", rr.Unwrap())
	}
	if len(cd.Values) != crashDemoTrials(Quick) {
		t.Fatalf("got %d values, want %d", len(cd.Values), crashDemoTrials(Quick))
	}
	for i, v := range cd.Values {
		if math.IsNaN(v) || v <= 0 || v >= 1 {
			t.Errorf("trial %d value = %v, want a finite uniform mean in (0,1)", i, v)
		}
	}
	if !strings.Contains(res.CSV(), "trial,value") {
		t.Errorf("CSV header missing:\n%s", res.CSV())
	}
	if res.Table() == "" || !strings.Contains(res.Annotation(), "-retries 2") {
		t.Error("Table/Annotation incomplete")
	}
}

// After crashdemo dies, the crash dump holds the panic event and the
// span tree around it: the panicking trial's span → its sweep → the
// experiment root, on one trace.
func TestCrashDemoDumpHoldsSpanTree(t *testing.T) {
	installTrace(t)
	r, _ := Lookup("crashdemo")
	if _, err := r.Run(context.Background(), Quick, 7); err == nil {
		t.Fatal("crashdemo succeeded without retries, want a trial panic")
	}
	bad := strconv.Itoa(crashDemoTrials(Quick) / 2)
	spans := map[string]obs.Event{}
	var trial obs.Event
	panicked := false
	for _, ev := range obs.BuildCrashDump("crashdemo test").Events {
		panicked = panicked || ev.Kind == "panic" && ev.Attrs["trial"] == bad
		if ev.Kind == "span" {
			spans[ev.Span] = ev
			if ev.Name == "trial" && ev.Attrs["trial"] == bad && ev.Attrs["attempt"] == "0" {
				trial = ev
			}
		}
	}
	sweep, root := spans[trial.Parent], spans[spans[trial.Parent].Parent]
	if !panicked || trial.Span == "" || sweep.Name != "sweep" || root.Name != "experiment.crashdemo" || root.Parent != "" {
		t.Fatalf("panic event %v, tree trial %+v → %+v → %+v; want trial → sweep → experiment.crashdemo root",
			panicked, trial, sweep, root)
	}
	if trial.Trace != sweep.Trace || sweep.Trace != root.Trace {
		t.Errorf("trace IDs diverge: trial %q, sweep %q, root %q", trial.Trace, sweep.Trace, root.Trace)
	}
}
