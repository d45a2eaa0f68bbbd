package mat

import (
	"fmt"
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

// dotTestVec draws a length-n vector that mixes the values a dot chain
// rounds differently: exact zeros of both signs, negatives, subnormals
// and magnitudes from 1e-3 to 1e3.
func dotTestVec(n int, src *rng.Source) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch src.Intn(6) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Copysign(0, -1)
		case 2:
			v[i] = float64(src.Intn(1000)-500) * math.SmallestNonzeroFloat64
		default:
			v[i] = src.Normal(0, 1) * math.Pow(10, float64(src.Intn(7)-3))
		}
	}
	return v
}

// TestDot4MatchesDot: each of Dot4's four outputs is bit-identical to Dot
// on the same row, at every length the trainer sees and around them;
// with NaN or infinite terms each output is NaN exactly where Dot's is,
// and the same infinity otherwise.
func TestDot4MatchesDot(t *testing.T) {
	check := func(name string, a [4][]float64, b []float64) {
		t.Helper()
		var got [4]float64
		got[0], got[1], got[2], got[3] = Dot4(a[0], a[1], a[2], a[3], b)
		for k := range a {
			want := Dot(a[k], b)
			if math.IsNaN(want) || math.IsNaN(got[k]) {
				if math.IsNaN(want) != math.IsNaN(got[k]) {
					t.Fatalf("%s: Dot4 output %d = %v, Dot = %v", name, k, got[k], want)
				}
				continue
			}
			if math.Float64bits(got[k]) != math.Float64bits(want) {
				t.Fatalf("%s: Dot4 output %d = %x, Dot = %x", name, k, math.Float64bits(got[k]), math.Float64bits(want))
			}
		}
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, n := range []int{0, 1, 3, 49, 784, 785} {
		for seed := uint64(1); seed <= 4; seed++ {
			src := rng.New(seed*977 + uint64(n))
			var a [4][]float64
			for k := range a {
				a[k] = dotTestVec(n, src)
			}
			b := dotTestVec(n, src)
			check(fmt.Sprintf("n %d seed %d", n, seed), a, b)
			if n == 0 {
				continue
			}
			// Poison one term of some rows, and sometimes of b, with NaN
			// or an infinity.
			for k := range a {
				if src.Intn(2) == 0 {
					a[k][src.Intn(n)] = specials[src.Intn(len(specials))]
				}
			}
			if src.Intn(2) == 0 {
				b[src.Intn(n)] = specials[src.Intn(len(specials))]
			}
			check(fmt.Sprintf("n %d seed %d specials", n, seed), a, b)
		}
	}
	// A lone infinity survives, with its sign, in the rows that hold it.
	b := []float64{1, 2, 3}
	check("infinities", [4][]float64{{math.Inf(1), 0, 1}, {1, math.Inf(-1), 1}, {1, 1, 1}, {math.NaN(), 0, 0}}, b)
	// Every argument is checked against b's length.
	for arg := 0; arg < 5; arg++ {
		v := [5][]float64{make([]float64, 3), make([]float64, 3), make([]float64, 3), make([]float64, 3), make([]float64, 3)}
		v[arg] = make([]float64, 2)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Dot4 with argument %d short did not panic", arg)
				}
			}()
			Dot4(v[0], v[1], v[2], v[3], v[4])
		}()
	}
}
