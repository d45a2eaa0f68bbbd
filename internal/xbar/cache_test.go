package xbar

import (
	"testing"

	"vortex/internal/device"
	"vortex/internal/rng"
)

// The conductance cache must never serve stale physics: every mutation
// path — programming, reset, drift, defect edits, and raw Cell access —
// has to dirty it. Each case below mutates the array through one path
// and checks the next read sees the change.

// readOnce senses the column currents for row voltages v through the
// crossbar's effective read map.
func readOnce(t *testing.T, x *Crossbar, v []float64) []float64 {
	t.Helper()
	w, err := x.EffectiveWeights()
	if err != nil {
		t.Fatal(err)
	}
	return w.MulVec(v)
}

func TestConductanceCacheInvalidation(t *testing.T) {
	cfg := baseConfig(16, 4)
	cfg.Sigma = 0.3
	v := make([]float64, 16)
	for i := range v {
		v[i] = 1
	}
	program := func(t *testing.T, x *Crossbar) {
		t.Helper()
		p := x.cfg.Model.PulseForTarget(x.Cell(2, 1).X, 11.2)
		if err := x.ProgramBatch([]CellPulse{{Row: 2, Col: 1, Pulse: p}}, ProgramOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	mutations := []struct {
		name   string
		setup  func(t *testing.T, x *Crossbar) // pre-mutation state, cached before mutate
		mutate func(t *testing.T, x *Crossbar)
	}{
		{"ProgramBatch", nil, program},
		// Fabricated devices rest at HRS, so ResetAll only changes state
		// after the array has been programmed away from it.
		{"ResetAll", program, func(t *testing.T, x *Crossbar) { x.ResetAll() }},
		{"SetDefect", nil, func(t *testing.T, x *Crossbar) {
			x.SetDefect(0, 0, device.DefectStuckHRS)
		}},
		{"CellMutation", nil, func(t *testing.T, x *Crossbar) {
			// Raw device access: the cache must be conservatively dirtied
			// by the pointer escape even though it cannot observe the write.
			x.Cell(3, 2).X = 11.9
		}},
		{"AgeTo", nil, func(t *testing.T, x *Crossbar) {
			if err := x.InitDrift(device.DefaultDriftModel(), rng.New(5)); err != nil {
				t.Fatal(err)
			}
			if err := x.AgeTo(3600); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, mc := range mutations {
		t.Run(mc.name, func(t *testing.T) {
			x := mustNew(t, cfg, 31)
			if mc.setup != nil {
				mc.setup(t, x)
			}
			before := readOnce(t, x, v) // populates the cache
			mc.mutate(t, x)
			after := readOnce(t, x, v)
			changed := false
			for j := range after {
				if after[j] != before[j] {
					changed = true
				}
			}
			if !changed {
				t.Fatalf("%s: read currents unchanged after mutation — stale conductance cache", mc.name)
			}
		})
	}
}

// TestCachedReadMatchesFreshConductances cross-checks the cached ideal
// read against a from-scratch conductance rebuild via the public
// (cloning) accessor.
func TestCachedReadMatchesFreshConductances(t *testing.T) {
	cfg := baseConfig(24, 6)
	cfg.Sigma = 0.4
	x := mustNew(t, cfg, 8)
	v := make([]float64, 24)
	for i := range v {
		v[i] = 0.7
	}
	got := readOnce(t, x, v)
	got2 := readOnce(t, x, v) // second read is served from the cache
	g := x.Conductances()
	want := make([]float64, 6)
	g.MulVecTo(want, v)
	for j := range want {
		if got[j] != want[j] || got2[j] != want[j] {
			t.Fatalf("col %d: cached read %g / %g vs fresh conductances %g", j, got[j], got2[j], want[j])
		}
	}
}
