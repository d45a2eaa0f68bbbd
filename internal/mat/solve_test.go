package mat

import (
	"math"
	"testing"

	"vortex/internal/rng"
)

func TestSolveDenseKnown(t *testing.T) {
	a := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := []float64{8, -11, -3}
	x, err := SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
	// Inputs unmodified.
	if a.At(0, 0) != 2 || b[0] != 8 {
		t.Fatal("SolveDense modified inputs")
	}
}

func TestSolveDenseSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveDense(a, []float64{1, 2}); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveDenseRandomResidual(t *testing.T) {
	src := rng.New(5)
	for trial := 0; trial < 20; trial++ {
		n := 2 + src.Intn(30)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = src.Norm()
		}
		// Diagonal boost to keep it well conditioned.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
		b := src.NormVec(nil, n, 1)
		x, err := SolveDense(a, b)
		if err != nil {
			t.Fatal(err)
		}
		r := SubVec(a.VecMul(x), b)
		if Norm2(r) > 1e-8 {
			t.Fatalf("residual %v too large (n=%d)", Norm2(r), n)
		}
	}
}
