package irdrop

import (
	"math"
	"testing"

	"vortex/internal/rng"
)

// warmColdTol is the acceptance bound for warm-vs-cold agreement: the
// Gauss-Seidel fixed point is unique, so a warm start may change the
// sweep count but never the converged answer beyond the tolerance
// geometry (DESIGN.md §9). With Tol = 1e-13 the two paths agree to
// better than 1e-12 on every node voltage and output current.
const warmColdTol = 1e-12

// perturb applies a small multiplicative perturbation to every
// conductance, like a programming pass or Monte-Carlo redraw would.
func perturb(g []float64, src *rng.Source, scale float64) {
	for i := range g {
		g[i] *= 1 + scale*(2*src.Float64()-1)
	}
}

// TestWarmAndColdSolvesAgree drives one persistent (warm-started)
// network through a sequence of conductance perturbations and checks
// that every solve matches a fresh cold network on the same
// conductances to warmColdTol — node voltages and sensed currents.
func TestWarmAndColdSolvesAgree(t *testing.T) {
	const m, n = 48, 6
	for _, seed := range []uint64{1, 42, 12345, 987654321} {
		src := rng.New(seed)
		g := randomConductances(seed*101+7, m, n)
		warm := NewNetwork(g, 2.5)
		warm.Tol = 1e-13

		vin := make([]float64, m)
		for i := range vin {
			vin[i] = src.Float64()
		}
		out := make([]float64, n)
		coldOut := make([]float64, n)

		for step := 0; step < 6; step++ {
			if step > 0 {
				perturb(g.Data, src, 0.02)
			}
			if err := warm.ReadInto(out, vin); err != nil {
				t.Fatalf("seed %d step %d: warm read: %v", seed, step, err)
			}
			warmSol := warm.workspace().sol.Clone()

			cold := NewNetwork(g.Clone(), 2.5)
			cold.Tol = 1e-13
			if err := cold.ReadInto(coldOut, vin); err != nil {
				t.Fatalf("seed %d step %d: cold read: %v", seed, step, err)
			}
			coldSol := cold.workspace().sol

			for k := range out {
				if d := math.Abs(out[k] - coldOut[k]); d > warmColdTol {
					t.Fatalf("seed %d step %d col %d: warm/cold current diff %g > %g",
						seed, step, k, d, warmColdTol)
				}
			}
			for k := range warmSol.U.Data {
				if d := math.Abs(warmSol.U.Data[k] - coldSol.U.Data[k]); d > warmColdTol {
					t.Fatalf("seed %d step %d: row-node voltage diff %g > %g",
						seed, step, d, warmColdTol)
				}
				if d := math.Abs(warmSol.W.Data[k] - coldSol.W.Data[k]); d > warmColdTol {
					t.Fatalf("seed %d step %d: col-node voltage diff %g > %g",
						seed, step, d, warmColdTol)
				}
			}
		}
	}
}

// TestWarmStartCutsSweeps re-solves an unchanged network and checks the
// warm start converges faster than the cold start did — with the same
// drive and conductances the workspace already holds the fixed point,
// so one confirming sweep must suffice.
func TestWarmStartCutsSweeps(t *testing.T) {
	g := randomConductances(5, 64, 8)
	nw := NewNetwork(g, 2.5)
	vin := make([]float64, 64)
	for i := range vin {
		vin[i] = 0.5
	}
	out := make([]float64, 8)
	if err := nw.ReadInto(out, vin); err != nil {
		t.Fatal(err)
	}
	coldSweeps := nw.Sweeps()
	if coldSweeps < 2 {
		t.Fatalf("cold solve converged in %d sweeps; expected an actual iteration", coldSweeps)
	}
	if err := nw.ReadInto(out, vin); err != nil {
		t.Fatal(err)
	}
	if warmSweeps := nw.Sweeps(); warmSweeps != 1 {
		t.Errorf("warm re-solve of an unchanged network took %d sweeps, want 1 (cold took %d)",
			warmSweeps, coldSweeps)
	}

	// Clearing the warm state must force a cold start again.
	nw.workspace().warm = false
	if err := nw.ReadInto(out, vin); err != nil {
		t.Fatal(err)
	}
	if got := nw.Sweeps(); got != coldSweeps {
		t.Errorf("solve after Reset took %d sweeps, want the cold count %d", got, coldSweeps)
	}
}

// TestSolutionAliasingAndClone documents the workspace-pooling contract:
// Solve returns a Solution aliasing the workspace buffers (overwritten
// by the next Solve), and Clone detaches a copy.
func TestSolutionAliasingAndClone(t *testing.T) {
	g := randomConductances(9, 12, 4)
	nw := NewNetwork(g, 2.5)
	vrow := make([]float64, 12)
	for i := range vrow {
		vrow[i] = 1
	}
	vcol := make([]float64, 4)

	first, err := nw.Solve(vrow, vcol)
	if err != nil {
		t.Fatal(err)
	}
	keep := first.Clone()

	// A different drive must overwrite the pooled buffers in place...
	for i := range vrow {
		vrow[i] = 0.25
	}
	second, err := nw.Solve(vrow, vcol)
	if err != nil {
		t.Fatal(err)
	}
	if first.U != second.U || first.W != second.W {
		t.Fatal("Solve returned detached matrices; expected pooled workspace buffers")
	}
	// ...while the clone keeps the original values.
	if keep.U.At(0, 0) == second.U.At(0, 0) {
		t.Fatal("clone tracked the workspace buffer; expected a detached copy")
	}
}

// TestReadIntoSteadyStateAllocs asserts the post-warmup parasitic read
// path allocates nothing — the core tentpole guarantee of the reusable
// workspace.
func TestReadIntoSteadyStateAllocs(t *testing.T) {
	g := randomConductances(3, 128, 10)
	nw := NewNetwork(g, 2.5)
	vin := make([]float64, 128)
	for i := range vin {
		vin[i] = 0.8
	}
	out := make([]float64, 10)
	if err := nw.ReadInto(out, vin); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := nw.ReadInto(out, vin); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ReadInto allocates %.1f objects/op, want 0", allocs)
	}
}
