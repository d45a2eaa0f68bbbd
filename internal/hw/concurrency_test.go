package hw_test

import (
	"sync"
	"testing"

	"vortex/internal/device"
	"vortex/internal/hw"
	"vortex/internal/mat"
	"vortex/internal/rng"
	"vortex/internal/xbar"
)

// TestConcurrentReadersOnSeparateArrays pins rule 1 of the concurrency
// contract documented in DESIGN.md §11.1: distinct arrays share no
// mutable state, so one goroutine per array may hammer reads on its own
// array with no locking. The arrays all report into the one
// hw.CrossbarMetrics bundle, which must itself stay race-clean. The
// subtest is named after that bundle's hw.circuit namespace, the
// crossbar's full circuit model. Run it under -race (make race does);
// rule 2 is pinned next to the crossbar in internal/xbar.
func TestConcurrentReadersOnSeparateArrays(t *testing.T) {
	t.Run("circuit", func(t *testing.T) {
		cfg := hw.Config{
			Rows:  64,
			Cols:  8,
			Model: device.DefaultSwitchModel(),
			Sigma: 0.3,
		}
		const arrays = 4
		var wg sync.WaitGroup
		for a := 0; a < arrays; a++ {
			xb, err := xbar.New(cfg, rng.New(uint64(40+a)))
			if err != nil {
				t.Fatal(err)
			}
			targets := mat.NewMatrix(cfg.Rows, cfg.Cols)
			targets.Fill(100e3)
			if err := xb.ProgramTargets(targets, hw.ProgramOptions{}); err != nil {
				t.Fatalf("program: %v", err)
			}
			wg.Add(1)
			go func(xb *xbar.Crossbar) {
				defer wg.Done()
				src := rng.New(7)
				v := make([]float64, xb.Rows())
				for i := range v {
					v[i] = src.Float64()
				}
				dst := make([]float64, xb.Cols())
				for i := 0; i < 50; i++ {
					w, err := xb.EffectiveWeights()
					if err != nil {
						t.Error(err)
						return
					}
					w.MulVecTo(dst, v)
					xb.Conductances() // cache reads race-free too
				}
			}(xb)
		}
		wg.Wait()
	})
}
