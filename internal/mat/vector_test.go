package mat

import (
	"math"
	"testing"
	"testing/quick"

	"vortex/internal/rng"
)

func TestDotNorms(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-12 {
		t.Fatal("Norm2")
	}
	if Norm2(nil) != 0 {
		t.Fatal("Norm2(nil)")
	}
}

func TestCauchySchwarz(t *testing.T) {
	// |a.b| <= ||a|| * ||b|| — the inequality underlying the paper's
	// Eq. (7) bound on the penalty of variations.
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 1 + src.Intn(50)
		a := src.NormVec(nil, n, 1)
		b := src.NormVec(nil, n, 1)
		return math.Abs(Dot(a, b)) <= Norm2(a)*Norm2(b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAxpyScaleAddSub(t *testing.T) {
	d := SubVec([]float64{5, 5}, []float64{2, 3})
	if d[0] != 3 || d[1] != 2 {
		t.Fatal("SubVec")
	}
	h := HadamardVec([]float64{2, 3}, []float64{4, 5})
	if h[0] != 8 || h[1] != 15 {
		t.Fatal("HadamardVec")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Dot":         func() { Dot([]float64{1}, []float64{1, 2}) },
		"SubVec":      func() { SubVec([]float64{1}, []float64{1, 2}) },
		"HadamardVec": func() { HadamardVec([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCloneConstant(t *testing.T) {
	v := []float64{1, 2}
	c := CloneVec(v)
	c[0] = 9
	if v[0] != 1 {
		t.Fatal("CloneVec shares storage")
	}
	k := Constant(3, 2.5)
	if len(k) != 3 || k[1] != 2.5 {
		t.Fatal("Constant")
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float64{1, 5, 3, 5}) != 1 {
		t.Fatal("ArgMax should return first max")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty")
		}
	}()
	ArgMax(nil)
}
