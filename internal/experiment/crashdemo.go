package experiment

import (
	"context"
	"fmt"
	"math"

	"vortex/internal/rng"
)

// crashdemo is the observability pipeline's demonstration sweep: one
// trial panics deliberately on its first attempt. Without -retries the
// sweep fails with a *TrialError and vortexsim leaves a crash dump
// whose window of the obs ring shows the panic event next to the span
// tree experiment.crashdemo → sweep → trial; with -retries 2 (or
// -partial) the run survives and the retry (or abandonment) shows up
// instead. It is the CLI-reachable fixture behind
// the crash-dump smoke tests and the EXPERIMENTS.md post-mortem walk-
// through — no figure in the paper corresponds to it.

// crashDemoTrials is the sweep size per scale.
func crashDemoTrials(s Scale) int {
	if s == Quick {
		return 8
	}
	return 16
}

// CrashDemoResult lists the per-trial values of the demo sweep (the
// mean of a seeded uniform stream; NaN where a trial was abandoned).
type CrashDemoResult struct {
	Values []float64
}

func (r *CrashDemoResult) cells() ([]string, [][]string) {
	rows := make([][]string, len(r.Values))
	for i, v := range r.Values {
		rows[i] = []string{intS(i), f3(v)}
	}
	return []string{"trial", "value"}, rows
}

// Table renders the result as an aligned text table.
func (r *CrashDemoResult) Table() string { return textTable(r.cells()) }

// CSV renders the result as comma-separated values.
func (r *CrashDemoResult) CSV() string { return csvTable(r.cells()) }

// Annotation implements Result.
func (r *CrashDemoResult) Annotation() string {
	return fmt.Sprintf("crash demo: trial %d panics on attempt 0; run with -retries 2 to survive it\n",
		len(r.Values)/2)
}

func init() {
	register(Runner{
		Name:        "crashdemo",
		Description: "deliberately panic one Monte-Carlo trial (crash-dump span tree and retry demo)",
		Run: func(ctx context.Context, s Scale, seed uint64) (Result, error) {
			n := crashDemoTrials(s)
			vals, done, err := parallelTrials(ctx, n, func(t Trial) (float64, error) {
				if t.Index == n/2 && t.Attempt == 0 {
					panic(fmt.Sprintf("crashdemo: deliberate panic in trial %d", t.Index))
				}
				src := rng.New(t.Seed)
				sum := 0.0
				for k := 0; k < 1000; k++ {
					sum += src.Float64()
				}
				return sum / 1000, nil
			})
			if err != nil {
				return nil, err
			}
			for i := range vals {
				if !done[i] {
					vals[i] = math.NaN()
				}
			}
			return &CrashDemoResult{Values: vals}, nil
		},
	})
}
