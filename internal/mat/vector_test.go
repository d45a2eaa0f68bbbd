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
	if Norm1([]float64{-1, 2, -3}) != 6 {
		t.Fatal("Norm1")
	}
	if NormInf([]float64{-1, 2, -3}) != 3 {
		t.Fatal("NormInf")
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-12 {
		t.Fatal("Norm2")
	}
	if NormInf(nil) != 0 {
		t.Fatal("NormInf(nil)")
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
	x := []float64{1, 2}
	y := []float64{10, 20}
	dst := make([]float64, 2)
	AxpyTo(dst, 3, x, y)
	if dst[0] != 13 || dst[1] != 26 {
		t.Fatalf("AxpyTo = %v", dst)
	}
	// Aliasing dst = x must work.
	AxpyTo(x, 2, x, y)
	if x[0] != 12 || x[1] != 24 {
		t.Fatalf("aliased AxpyTo = %v", x)
	}
	ScaleVec(y, 0.5)
	if y[0] != 5 || y[1] != 10 {
		t.Fatal("ScaleVec")
	}
	AddVec(y, []float64{1, 1})
	if y[0] != 6 || y[1] != 11 {
		t.Fatal("AddVec")
	}
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
		"Dot":     func() { Dot([]float64{1}, []float64{1, 2}) },
		"AddVec":  func() { AddVec([]float64{1}, []float64{1, 2}) },
		"SubVec":  func() { SubVec([]float64{1}, []float64{1, 2}) },
		"Permute": func() { PermuteVec([]float64{1, 2}, []int{0}) },
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

func TestPermutations(t *testing.T) {
	p := []int{2, 0, 1}
	v := []float64{10, 20, 30}
	pv := PermuteVec(v, p)
	if pv[0] != 30 || pv[1] != 10 || pv[2] != 20 {
		t.Fatalf("PermuteVec = %v", pv)
	}
	inv := InversePerm(p)
	back := PermuteVec(pv, inv)
	for i := range v {
		if back[i] != v[i] {
			t.Fatal("inverse permutation did not restore order")
		}
	}
	if !IsPermutation(p) || IsPermutation([]int{0, 0}) || IsPermutation([]int{0, 2}) {
		t.Fatal("IsPermutation misjudged")
	}
}

func TestInversePermProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 1 + src.Intn(64)
		p := src.Perm(n)
		q := InversePerm(p)
		for i := range p {
			if q[p[i]] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInversePermPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	InversePerm([]int{1, 1})
}
