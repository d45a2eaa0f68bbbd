package experiment

import (
	"context"
	"errors"
	"testing"
)

// Every figure, table and extension driver must be registered; the CLI
// is generated from this set.
func TestRegistryCoversAllDrivers(t *testing.T) {
	want := []string{
		"fig2", "fig3", "fig4", "fig5", "fig7", "fig8", "fig9", "table1",
		"schemes", "defects", "faults", "cost", "mappers", "tiling",
		"mlp", "precision", "refresh", "retention", "fleetdrift", "soasweep",
		"crashdemo",
	}
	for _, name := range want {
		r, ok := Lookup(name)
		if !ok {
			t.Errorf("driver %q not registered", name)
			continue
		}
		if r.Name != name || r.Description == "" || r.Run == nil {
			t.Errorf("driver %q registered incompletely: %+v", name, r)
		}
	}
	if got := len(Runners()); got != len(want) {
		t.Errorf("registry has %d runners, want %d", got, len(want))
	}
}

func TestRunnersSorted(t *testing.T) {
	rs := Runners()
	for i := 1; i < len(rs); i++ {
		if rs[i-1].Name >= rs[i].Name {
			t.Fatalf("Runners not sorted: %q before %q", rs[i-1].Name, rs[i].Name)
		}
	}
}

func TestClosestSuggestsTypo(t *testing.T) {
	got := Closest("fgi2", 3)
	if len(got) == 0 || got[0] != "fig2" {
		t.Errorf("Closest(\"fgi2\") = %v, want fig2 first", got)
	}
	if got := Closest("zzzzzzzzzzzz", 3); len(got) != 0 {
		t.Errorf("Closest far-off input suggested %v", got)
	}
}

func TestEditDistance(t *testing.T) {
	for _, tc := range []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"fig2", "fig2", 0},
		{"fgi2", "fig2", 2},
		{"fig", "fig2", 1},
		{"table1", "tiling", 5},
	} {
		if got := editDistance(tc.a, tc.b); got != tc.want {
			t.Errorf("editDistance(%q, %q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

// A canceled context must abort a registered run with ctx.Err() before
// any heavy work happens.
func TestRunnersHonorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range Runners() {
		if _, err := r.Run(ctx, Quick, 1); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", r.Name, err)
		}
	}
}

// Every registered run at Quick scale must produce a renderable result.
// Running all of them here would dominate the test suite, so this pins
// the contract on the cheapest driver only; the per-driver tests cover
// the rest.
func TestRunnerProducesResult(t *testing.T) {
	r, ok := Lookup("fig3")
	if !ok {
		t.Fatal("fig3 not registered")
	}
	res, err := r.Run(context.Background(), Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table() == "" || res.CSV() == "" {
		t.Error("empty rendering")
	}
	if res.Annotation() == "" {
		t.Error("fig3 should annotate its crossover")
	}
}

// Registered runs come back decorated: a *RunResult carrying the span
// duration and a metrics snapshot with the hardware counters the run
// drove.
func TestRunnerDecoratesResultWithMetrics(t *testing.T) {
	r, ok := Lookup("fig2")
	if !ok {
		t.Fatal("fig2 not registered")
	}
	res, err := r.Run(context.Background(), Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := res.(*RunResult)
	if !ok {
		t.Fatalf("registered run returned %T, want *RunResult", res)
	}
	if rr.Elapsed <= 0 {
		t.Error("RunResult.Elapsed not positive")
	}
	if rr.Unwrap() == nil || rr.Unwrap().Table() == "" {
		t.Error("Unwrap lost the driver result")
	}
	// fig2's programming pulses must have been counted under the
	// hardware namespace, and the experiment span must be present.
	if got := rr.Metrics.Counters["hw.circuit.pulses"]; got == 0 {
		t.Errorf("hw.circuit.pulses = %d, want > 0", got)
	}
	if hs, ok := rr.Metrics.Histograms["span.experiment.fig2"]; !ok || hs.Count == 0 {
		t.Errorf("span.experiment.fig2 missing from snapshot: %+v", hs)
	}
}
