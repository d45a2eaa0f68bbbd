package ncs

import (
	"math"
	"testing"

	"vortex/internal/dataset"
	"vortex/internal/hw"
	"vortex/internal/mat"
	"vortex/internal/rng"
	"vortex/internal/xbar"
)

// TestScoresBatchMatchesScores checks the batched scoring path returns
// exactly what per-sample Scores calls return on a crossbar pair with
// variation and quantizing ADCs in the loop (the "circuit" case), and
// that its rows cannot grow into each other (the "capped-rows" case).
func TestScoresBatchMatchesScores(t *testing.T) {
	t.Run("circuit", func(t *testing.T) {
		cfg := DefaultConfig(12, 4)
		cfg.Sigma = 0.3
		n, err := New(cfg, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(2)
		w := mat.NewMatrix(12, 4)
		for i := range w.Data {
			w.Data[i] = 2*src.Float64() - 1
		}
		if err := n.ProgramWeights(w, xbar.ProgramOptions{}); err != nil {
			t.Fatal(err)
		}

		xs := make([][]float64, 10)
		for k := range xs {
			xs[k] = make([]float64, 12)
			for i := range xs[k] {
				xs[k][i] = src.Float64()
			}
		}
		batch, err := n.ScoresBatch(xs)
		if err != nil {
			t.Fatalf("ScoresBatch: %v", err)
		}
		if len(batch) != len(xs) {
			t.Fatalf("got %d rows, want %d", len(batch), len(xs))
		}
		// Copy before the per-sample reference calls: scoresInto reuses
		// internal scratch, and the batch rows must already be detached
		// from it.
		for k, x := range xs {
			want, err := n.Scores(x)
			if err != nil {
				t.Fatalf("Scores(%d): %v", k, err)
			}
			for j := range want {
				if d := math.Abs(batch[k][j] - want[j]); d > 1e-12 {
					t.Errorf("sample %d class %d: batch %g vs scores %g (diff %g)",
						k, j, batch[k][j], want[j], d)
				}
			}
		}
	})
	t.Run("capped-rows", func(t *testing.T) {
		n := newIdeal(t, 3, 4)
		out, err := n.ScoresBatch([][]float64{{1, 0, 1}, {0, 1, 0}, {1, 1, 1}})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 3 {
			t.Fatalf("got %d rows, want 3", len(out))
		}
		for k := range out {
			if len(out[k]) != 4 || cap(out[k]) != 4 {
				t.Fatalf("row %d: len %d cap %d, want 4/4", k, len(out[k]), cap(out[k]))
			}
		}
		row1 := out[1][0]
		out[0] = append(out[0], 99) // must reallocate, not spill into row 1
		if out[1][0] != row1 {
			t.Fatal("appending to row 0 overwrote row 1; rows share growable capacity")
		}
	})
}

// TestScoresBatchInputValidation checks bad rows abort the batch.
func TestScoresBatchInputValidation(t *testing.T) {
	n := newIdeal(t, 3, 2)
	if _, err := n.ScoresBatch([][]float64{{1, 0, 1}, {1}}); err == nil {
		t.Fatal("expected input length error for the short row")
	}
}

// TestScoresSteadyStateAllocs pins the zero-allocation guarantee of the
// read every layer runs: once the fused effective-weight block is
// cached, Scores and Evaluate allocate only their one output buffer and
// ScoresBatch only its two (row headers and one backing array), whatever
// the set or batch size, with ideal wires and with wire parasitics.
func TestScoresSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name  string
		rwire float64
	}{
		{"circuit-ideal", 0},
		{"circuit-parasitic", 2.5},
	}
	const inputs, outputs = 49, 10
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(inputs, outputs)
			cfg.RWire = tc.rwire
			cfg.Sigma = 0.3
			n, err := New(cfg, rng.New(11))
			if err != nil {
				t.Fatal(err)
			}
			src := rng.New(5)
			w := mat.NewMatrix(inputs, outputs)
			for i := range w.Data {
				w.Data[i] = 2*src.Float64() - 1
			}
			if err := n.ProgramWeights(w, hw.ProgramOptions{}); err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{8, 64} {
				set := &dataset.Set{Samples: make([]dataset.Sample, size)}
				xs := make([][]float64, size)
				for k := range xs {
					xs[k] = make([]float64, inputs)
					for i := range xs[k] {
						xs[k][i] = src.Float64()
					}
					set.Samples[k] = dataset.Sample{Pixels: xs[k], Label: k % outputs}
				}
				// Warm-up: fill the fused block and the scratch buffers.
				if _, err := n.ScoresBatch(xs); err != nil {
					t.Fatal(err)
				}
				for _, op := range []struct {
					name string
					want float64
					run  func() error
				}{
					{"Scores", 1, func() error { _, err := n.Scores(xs[0]); return err }},
					{"Evaluate", 1, func() error { _, err := n.Evaluate(set); return err }},
					{"ScoresBatch", 2, func() error { _, err := n.ScoresBatch(xs); return err }},
				} {
					var runErr error
					allocs := testing.AllocsPerRun(20, func() {
						if err := op.run(); err != nil {
							runErr = err
						}
					})
					if runErr != nil {
						t.Fatal(runErr)
					}
					if allocs != op.want {
						t.Errorf("%s over %d samples: %v allocs/op, want %v",
							op.name, size, allocs, op.want)
					}
				}
			}
		})
	}
}
