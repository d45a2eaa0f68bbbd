package xbar

import (
	"sync"
	"testing"

	"vortex/internal/mat"
	"vortex/internal/rng"
)

// This test pins rule 2 of the concurrency contract documented in
// DESIGN.md §11.1: one Crossbar is NOT safe for concurrent use (its
// conductance cache, solver workspace and stats are all unguarded), so
// all access to one array must be externally serialized. Rule 1, that
// distinct arrays share no mutable state, is pinned by internal/hw's
// TestConcurrentReadersOnSeparateArrays. Run both under -race (make race
// does).

// concurrencyConfig returns a mid-size ideal-wire array config.
func concurrencyConfig() Config {
	cfg := baseConfig(64, 8)
	cfg.Sigma = 0.3
	return cfg
}

// buildProgrammed fabricates and open-loop programs one array.
func buildProgrammed(t *testing.T, cfg Config, seed uint64) *Crossbar {
	t.Helper()
	xb := mustNew(t, cfg, seed)
	targets := mat.NewMatrix(cfg.Rows, cfg.Cols)
	targets.Fill(100e3)
	if err := xb.ProgramTargets(targets, ProgramOptions{}); err != nil {
		t.Fatalf("program: %v", err)
	}
	return xb
}

// randomInput builds one random input vector of the given width.
func randomInput(width int, seed uint64) []float64 {
	src := rng.New(seed)
	v := make([]float64, width)
	for i := range v {
		v[i] = src.Float64()
	}
	return v
}

// readInto senses the column currents for row voltages v into dst
// through the array's effective read map.
func readInto(xb *Crossbar, dst, v []float64) error {
	w, err := xb.EffectiveWeights()
	if err != nil {
		return err
	}
	w.MulVecTo(dst, v)
	return nil
}

// TestSerializedReadReprogramOneArray interleaves reads, reprograms and
// stats snapshots on ONE array from several goroutines, all serialized
// behind one mutex — the usage pattern internal/fleet's Member lock
// enforces. Under -race this passes only because of the external lock;
// removing it makes the conductance cache and stats counters race.
func TestSerializedReadReprogramOneArray(t *testing.T) {
	xb := buildProgrammed(t, concurrencyConfig(), 99)
	targets := mat.NewMatrix(xb.Rows(), xb.Cols())
	targets.Fill(200e3)
	var mu sync.Mutex
	var wg sync.WaitGroup
	v := randomInput(xb.Rows(), 3)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]float64, xb.Cols())
			for i := 0; i < 30; i++ {
				mu.Lock()
				var err error
				switch {
				case g%3 == 0 && i%10 == 9:
					err = xb.ProgramTargets(targets, ProgramOptions{})
				case g%3 == 1 && i%10 == 9:
					xb.Stats()
					xb.ResetStats()
				default:
					err = readInto(xb, dst, v)
				}
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
