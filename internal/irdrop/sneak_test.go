package irdrop

import (
	"math"
	"testing"

	"vortex/internal/device"
	"vortex/internal/mat"
)

func fill(rows, cols int, r float64) *mat.Matrix {
	g := mat.NewMatrix(rows, cols)
	g.Fill(1 / r)
	return g
}

func TestSolveMaskedAllDrivenMatchesSolve(t *testing.T) {
	g := randomConductances(61, 6, 4)
	nw := NewNetwork(g, 3)
	vrow := []float64{1, 0.5, 0, 0.25, 0.75, 1}
	vcol := make([]float64, 4)
	sol, err := nw.Solve(vrow, vcol)
	if err != nil {
		t.Fatal(err)
	}
	ref := sol.Clone() // SolveMasked reuses the pooled buffers Solve returned
	got, err := nw.SolveMasked(vrow, vcol, AllDriven(6, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.U.Data {
		if math.Abs(ref.U.Data[i]-got.U.Data[i]) > 1e-7 {
			t.Fatal("all-driven masked solve differs from Solve (U)")
		}
		if math.Abs(ref.W.Data[i]-got.W.Data[i]) > 1e-7 {
			t.Fatal("all-driven masked solve differs from Solve (W)")
		}
	}
}

func TestSolveMaskedRejectsIdealWires(t *testing.T) {
	nw := NewNetwork(fill(3, 3, 1e5), 0)
	if _, err := nw.SolveMasked(make([]float64, 3), make([]float64, 3), AllDriven(3, 3)); err == nil {
		t.Fatal("expected error for RWire == 0")
	}
}

func TestSneakPathsCorruptFloatingReads(t *testing.T) {
	// The paper's Sec. 4.2.1 protocol, quantified: measuring one cell
	// with the other lines floating over an all-LRS background picks up
	// sneak currents; grounding the lines or keeping the background at
	// HRS suppresses them.
	const rows, cols = 16, 8
	const rTarget = 100e3
	vread := 1.0
	apparent := func(background float64, floating bool) float64 {
		g := fill(rows, cols, background)
		g.Set(3, 4, 1/rTarget) // the cell under test
		nw := NewNetwork(g, 2.5)
		var mask LineMask
		if floating {
			mask = LineMask{Rows: make([]bool, rows), Cols: make([]bool, cols)}
		} else {
			mask = AllDriven(rows, cols)
		}
		i, err := nw.ReadCellCurrent(3, 4, vread, mask)
		if err != nil {
			t.Fatal(err)
		}
		return vread / i
	}
	errOf := func(r float64) float64 { return math.Abs(math.Log(r / rTarget)) }

	floatLRS := apparent(device.RonNominal, true)
	groundLRS := apparent(device.RonNominal, false)
	floatHRS := apparent(device.RoffNominal, true)
	groundHRS := apparent(device.RoffNominal, false)

	t.Logf("apparent R: float/LRS %.3g, grounded/LRS %.3g, float/HRS %.3g, grounded/HRS %.3g (target %.3g)",
		floatLRS, groundLRS, floatHRS, groundHRS, rTarget)

	// Floating lines over an LRS background must corrupt the measurement
	// badly (sneak paths shunt the cell).
	if errOf(floatLRS) < 0.5 {
		t.Fatalf("expected heavy sneak corruption, apparent R %.3g", floatLRS)
	}
	// Grounding the unselected lines must measure far better.
	if errOf(groundLRS) >= errOf(floatLRS)/4 {
		t.Fatalf("grounding did not suppress sneak error: %.3f vs %.3f",
			errOf(groundLRS), errOf(floatLRS))
	}
	// An HRS background shrinks the sneak error by orders of magnitude
	// even with floating lines (part one of the paper's discipline)...
	if errOf(floatHRS) >= errOf(floatLRS)/4 {
		t.Fatalf("HRS background did not suppress sneak paths: %.3f vs %.3f",
			errOf(floatHRS), errOf(floatLRS))
	}
	// ...and combining it with driven lines makes the measurement clean
	// (the full Sec. 4.2.1 protocol).
	if errOf(groundHRS) > 0.05 {
		t.Fatalf("full pre-test discipline should measure cleanly, got error %.3f", errOf(groundHRS))
	}
}

func TestReadCellCurrentSelectedLinesForcedDriven(t *testing.T) {
	// Even with an all-floating mask, the selected row/column are driven,
	// so current flows; with every line driven over an HRS background the
	// reading is essentially the cell conductance.
	g := fill(4, 4, 1e6)
	nw := NewNetwork(g, 2.5)
	floating := LineMask{Rows: make([]bool, 4), Cols: make([]bool, 4)}
	i, err := nw.ReadCellCurrent(1, 2, 1, floating)
	if err != nil {
		t.Fatal(err)
	}
	if i <= 0 {
		t.Fatalf("no current through the selected cell: %v", i)
	}
	iDriven, err := nw.ReadCellCurrent(1, 2, 1, AllDriven(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / 1e6
	if math.Abs(iDriven-want)/want > 0.05 {
		t.Fatalf("driven HRS-background read %.3g, want ~%.3g", iDriven, want)
	}
}
