package mat_test

import (
	"fmt"
	"math"
	"testing"

	"vortex/internal/dataset"
	"vortex/internal/mat"
	"vortex/internal/rng"
)

// screenVec draws n row values that float32 rounds in every way: exact
// zeros of both signs, 1, values float32 rounds (normal and subnormal in
// float32, and float64 subnormals), and magnitudes up to MaxFloat32.
func screenVec(n int, src *rng.Source) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch src.Intn(9) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Copysign(0, -1)
		case 2:
			v[i] = 1
		case 3: // float32 subnormals and what rounds to them
			v[i] = (src.Float64()*2 - 1) * 0x1p-130
		case 4:
			v[i] = float64(src.Intn(1000)-500) * math.SmallestNonzeroFloat64
		case 5: // large, up to MaxFloat32
			v[i] = (src.Float64()*2 - 1) * math.Pow(10, float64(src.Intn(39)))
		case 6:
			v[i] = math.Copysign(math.MaxFloat32, src.Float64()-0.5)
		default:
			v[i] = src.Float64()
		}
	}
	return v
}

// boxVec draws n weights in [-wmax, wmax]: both ends, zeros of both
// signs, subnormals and uniform values.
func boxVec(n int, wmax float64, src *rng.Source) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch src.Intn(6) {
		case 0:
			v[i] = math.Copysign(wmax, src.Float64()-0.5)
		case 1:
			v[i] = math.Copysign(0, src.Float64()-0.5)
		case 2:
			v[i] = float64(src.Intn(1000)-500) * math.SmallestNonzeroFloat64
		default:
			v[i] = (2*src.Float64() - 1) * wmax
		}
	}
	return v
}

// checkScreen fails t unless, on every implementation the machine
// supports, ScreenRow over each row of x lies within half its Bounds
// (the derived bound; the stored one is twice it) of the exact chains
// Dot and the sum of squares under Norm2, with the squares and without
// them (+0 then), or the row's bounds are infinite because it holds a
// value float32 cannot carry or wmax is outside [2⁻⁶⁴, 2⁶⁴].
func checkScreen(t testing.TB, name string, x *mat.Matrix, wmax float64, w, prev []float64) {
	defer mat.SetKernelISA("auto")
	m := mat.NewScreenMatrix(x, wmax)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		dot, sq := m.Bounds(i)
		exactOnly := false
		for _, v := range row {
			exactOnly = exactOnly || !(math.Abs(v) <= math.MaxFloat32)
		}
		if exactOnly || !(wmax >= 0x1p-64 && wmax <= 0x1p64) {
			if !math.IsInf(dot, 1) || !math.IsInf(sq, 1) {
				t.Fatalf("%s row %d: bounds %v, %v, want infinite", name, i, dot, sq)
			}
			continue
		}
		if !(dot >= 0 && sq >= 0) || math.IsInf(dot, 0) {
			t.Fatalf("%s row %d: bounds %v, %v", name, i, dot, sq)
		}
		want := [4]float64{mat.Dot(row, w), mat.Dot(row, prev), sumSq(row, w), sumSq(row, prev)}
		for _, isa := range []string{"generic", "avx512"} {
			if mat.SetKernelISA(isa) != isa {
				continue
			}
			for _, squares := range []bool{false, true} {
				var out mat.Screen
				mat.ScreenRow(&out, &m, i, (i+1)%x.Rows, w, prev, squares)
				got := [4]float64{out.Dot, out.DotPrev, out.Sq, out.SqPrev}
				for j := range got {
					bound, exact := dot/2, want[j]
					if j >= 2 {
						bound = sq / 2
						if !squares {
							bound, exact = 0, 0
						}
					}
					if d := math.Abs(got[j] - exact); !(d <= bound) {
						t.Fatalf("%s %s squares %v row %d sum %d: screen %v, exact %v, off by %v, bound %v",
							name, isa, squares, i, j, got[j], exact, d, bound)
					}
				}
			}
		}
	}
}

// TestScreenWithinBound: on every implementation, each of ScreenRow's
// four sums lies within the derived bound of the exact chain, on rows
// with signed zeros, ones, float32-subnormal, float64-subnormal and
// large magnitudes up to MaxFloat32 and on rendered digit rows, at n 1
// to 17, 49, 196 and 784, against weights in boxes of three sizes that
// reach both ends. Rows holding NaN, ±Inf or a magnitude above
// MaxFloat32 get infinite bounds, as does every row when wmax is
// outside [2⁻⁶⁴, 2⁶⁴].
func TestScreenWithinBound(t *testing.T) {
	lengths := []int{49, 196, 784}
	for n := 1; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, wmax := range []float64{1, 0.25, 3} {
			src := rng.New(uint64(n)*7 + uint64(wmax*4))
			const rows = 12
			x := mat.NewMatrix(rows, n)
			copy(x.Data, screenVec(rows*n, src))
			for k, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e39, -math.MaxFloat64} {
				x.Row(rows - 1 - k)[src.Intn(n)] = v
			}
			for trial := 0; trial < 4; trial++ {
				w, prev := boxVec(n, wmax, src), boxVec(n, wmax, src)
				checkScreen(t, fmt.Sprintf("n %d wmax %v trial %d", n, wmax, trial), x, wmax, w, prev)
			}
		}
	}
	for _, factor := range []int{1, 2, 4} {
		train, _, err := dataset.Digits(2, 0, factor, 3)
		if err != nil {
			t.Fatal(err)
		}
		x, _ := train.ToMatrix()
		src := rng.New(uint64(factor))
		checkScreen(t, fmt.Sprintf("digits n %d", x.Cols), x, 1, boxVec(x.Cols, 1, src), boxVec(x.Cols, 1, src))
	}
	x := mat.NewMatrix(2, 3)
	for _, wmax := range []float64{0x1p-65, 0x1p65, math.Inf(1), math.NaN()} {
		checkScreen(t, fmt.Sprintf("wmax %v", wmax), x, wmax, make([]float64, 3), make([]float64, 3))
	}
}

// FuzzScreenRow: ScreenRow stays within its bound on rows and weights
// drawn from the fuzzed seed, with the fuzzed values spliced into the
// row and the box's bound taken from the fuzzer.
func FuzzScreenRow(f *testing.F) {
	f.Add(uint64(1), uint16(49), 1.0, 0.5, -3e38)
	f.Add(uint64(2), uint16(784), 0.25, 0x1p-140, 1.0)
	f.Add(uint64(3), uint16(7), 3.0, math.MaxFloat32, math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, wmax, a, b float64) {
		if n == 0 || n > 1000 || !(wmax > 0) || math.IsInf(wmax, 0) {
			t.Skip()
		}
		src := rng.New(seed)
		x := mat.NewMatrix(3, int(n))
		copy(x.Data, screenVec(3*int(n), src))
		x.Data[src.Intn(len(x.Data))] = a
		x.Data[src.Intn(len(x.Data))] = b
		checkScreen(t, "fuzz", x, wmax, boxVec(int(n), wmax, src), boxVec(int(n), wmax, src))
	})
}

// TestScreenRowPanics: a weight length mismatch, or a row or prefetch
// row outside the matrix, panics.
func TestScreenRowPanics(t *testing.T) {
	m := mat.NewScreenMatrix(mat.NewMatrix(3, 7), 1)
	w, prev := make([]float64, 7), make([]float64, 7)
	var out mat.Screen
	mat.ScreenRow(&out, &m, 2, 0, w, prev, true)
	cases := map[string]func(){
		"short prev":    func() { mat.ScreenRow(&out, &m, 0, 0, w, prev[:6], false) },
		"long w":        func() { mat.ScreenRow(&out, &m, 0, 0, append(w, 0), append(prev, 0), true) },
		"negative row":  func() { mat.ScreenRow(&out, &m, -1, 0, w, prev, false) },
		"row past end":  func() { mat.ScreenRow(&out, &m, 3, 0, w, prev, false) },
		"next past end": func() { mat.ScreenRow(&out, &m, 0, 3, w, prev, true) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// stepScalar is StepRow's contract, written as the scalar loop.
func stepScalar(w, x []float64, ny, coef, rate, wmax float64) []float64 {
	out := append([]float64(nil), w...)
	for q := range out {
		g := ny*x[q] + coef*x[q]*x[q]*out[q]
		wq := out[q] - rate*g
		if wq > wmax {
			wq = wmax
		} else if wq < -wmax {
			wq = -wmax
		}
		out[q] = wq
	}
	return out
}

// checkStep fails t unless StepRow on every implementation the machine
// supports gives stepScalar's weights, bit for bit (NaN payloads aside).
func checkStep(t testing.TB, name string, w, x []float64, ny, coef, rate, wmax float64) {
	defer mat.SetKernelISA("auto")
	want := stepScalar(w, x, ny, coef, rate, wmax)
	for _, isa := range []string{"generic", "avx512"} {
		if mat.SetKernelISA(isa) != isa {
			continue
		}
		got := append([]float64(nil), w...)
		mat.StepRow(got, x, ny, coef, rate, wmax)
		for q := range want {
			if !sameFloat(got[q], want[q]) {
				t.Fatalf("%s %s: w[%d] = %x, scalar %x (w %v, x %v)", name, isa, q,
					math.Float64bits(got[q]), math.Float64bits(want[q]), w[q], x[q])
			}
		}
	}
}

// TestStepRowMatchesScalar: on every implementation, StepRow gives the
// scalar loop's weights bit for bit, at n 0 to 17, 49, 196 and 784,
// with both targets, the penalty's coefficient off and on, steps that
// cross either end of the box and land on it, signed zeros,
// subnormals, NaN and infinities in w and x, and boxes of 0.25, 1 and
// +Inf.
func TestStepRowMatchesScalar(t *testing.T) {
	lengths := []int{49, 196, 784}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1, -1}
	for _, n := range lengths {
		src := rng.New(uint64(n) + 99)
		for trial := 0; trial < 6; trial++ {
			wmax := []float64{1, 0.25, math.Inf(1)}[trial%3]
			w, x := boxVec(n, 1.5, src), awkwardVec(n, src)
			if trial >= 3 && n > 0 {
				w[src.Intn(n)] = specials[src.Intn(len(specials))]
				x[src.Intn(n)] = specials[src.Intn(len(specials))]
			}
			for _, ny := range []float64{1, -1} {
				for _, coef := range []float64{0, 0.3 * src.Float64(), 1e3} {
					rate := []float64{0.05, 0.5, 4}[src.Intn(3)]
					checkStep(t, fmt.Sprintf("n %d trial %d ny %v coef %v rate %v wmax %v", n, trial, ny, coef, rate, wmax), w, x, ny, coef, rate, wmax)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("StepRow with len(x) != len(w): no panic")
		}
	}()
	mat.StepRow(make([]float64, 3), make([]float64, 4), 1, 0, 1, 1)
}

var screenSink mat.Screen

// BenchmarkScreenRow times eight ScreenRow calls, one per row, over
// Full-size (784-feature) rows spread through a 4,000-row matrix as the
// SGD pass visits them: the unit ScoreRows8's benchmark times.
func BenchmarkScreenRow(b *testing.B) {
	src := rng.New(1)
	x := mat.NewMatrix(4000, 784)
	for i := range x.Data {
		x.Data[i] = src.Float64()
	}
	m := mat.NewScreenMatrix(x, 1)
	w, prev := src.NormVec(nil, 784, 0.1), src.NormVec(nil, 784, 0.1)
	for _, isa := range []string{"generic", "avx512"} {
		if got := mat.SetKernelISA(isa); got != isa {
			continue
		}
		for _, squares := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/squares=%v", isa, squares), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for k := 0; k < 8; k++ {
						j := i*8 + k
						mat.ScreenRow(&screenSink, &m, j*1543%4000, (j+1)*1543%4000, w, prev, squares)
					}
				}
			})
		}
	}
	mat.SetKernelISA("auto")
}

// BenchmarkNewScreenMatrix times the float32 copy and bounds of a Full
// (4,000 x 784) training matrix.
func BenchmarkNewScreenMatrix(b *testing.B) {
	src := rng.New(1)
	x := mat.NewMatrix(4000, 784)
	for i := range x.Data {
		x.Data[i] = src.Float64()
	}
	for i := 0; i < b.N; i++ {
		mat.NewScreenMatrix(x, 1)
	}
}
