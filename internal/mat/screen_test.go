package mat_test

import (
	"fmt"
	"math"
	"testing"

	"vortex/internal/dataset"
	"vortex/internal/mat"
	"vortex/internal/rng"
)

// screenISAs are the implementations the screen tests compare; each
// runs where the machine supports it.
var screenISAs = []string{"generic", "avx2", "avx512"}

// screenVec draws n row values that binary16 carries, rounding them in
// every way: exact zeros of both signs, 1, 65504 (the largest binary16)
// and what rounds down to it, binary16 subnormals and what rounds to
// them or to 0, the float32 and float64 subnormals, ties between two
// binary16 values (in float64 and after rounding to float32), and
// uniform values.
func screenVec(n int, src *rng.Source) []float64 {
	v := make([]float64, n)
	for i := range v {
		sign := math.Copysign(1, src.Float64()-0.5)
		switch src.Intn(12) {
		case 0:
			v[i] = math.Copysign(0, sign)
		case 1:
			v[i] = 1
		case 2: // 65504, and above it up to what still rounds down to it
			v[i] = sign * []float64{65504, 65519.99, 65519.998, 65504 + 15.99*src.Float64()}[src.Intn(4)]
		case 3: // binary16 subnormals, and values on either side of 2⁻¹⁴
			v[i] = sign * float64(src.Intn(1100)) * 0x1p-24 * (1 + (src.Float64()-0.5)*0x1p-20)
		case 4: // what rounds to 0 or to the least subnormal: 2⁻²⁵ ties to 0
			v[i] = sign * []float64{0x1p-25, 0x1p-26, 0x1p-25 * (1 + 0x1p-30), (src.Float64() * 0x1p-25)}[src.Intn(4)]
		case 5: // float32 subnormals, float64 subnormals
			v[i] = []float64{(src.Float64()*2 - 1) * 0x1p-130, float64(src.Intn(1000)-500) * math.SmallestNonzeroFloat64}[src.Intn(2)]
		case 6: // ties: halfway between two binary16 values at some scale
			v[i] = sign * (1 + (float64(src.Intn(1024))+0.5)*0x1p-10) * math.Ldexp(1, src.Intn(30)-14)
		case 7: // a float64 just off a tie, which float32 rounds onto it
			v[i] = sign * (1 + (float64(src.Intn(1024))+0.5)*0x1p-10 + (src.Float64()-0.5)*0x1p-26) * math.Ldexp(1, src.Intn(30)-14)
		case 8: // large, up to 65504
			v[i] = sign * src.Float64() * math.Pow(10, float64(src.Intn(5)))
		default:
			v[i] = src.Float64()
		}
	}
	return v
}

// exactOnlyVal draws a value binary16 cannot carry: NaN, ±Inf, 65520
// (the tie that rounds past 65504 to Inf) and values above it, up to
// the largest float64, and a value float32 rounds up to 65520.
func exactOnlyVal(src *rng.Source) float64 {
	sign := math.Copysign(1, src.Float64()-0.5)
	switch src.Intn(6) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(int(sign))
	case 2:
		return sign * 65520
	case 3:
		return sign * 65519.999
	case 4:
		return sign * []float64{70000, 1e9, math.MaxFloat32, 1e39, math.MaxFloat64}[src.Intn(5)]
	default:
		return sign * 65520 * (1 + src.Float64())
	}
}

// screenRows returns a rows x n matrix of screenVec rows, with an
// exactOnlyVal spliced into about one row in four.
func screenRows(rows, n int, src *rng.Source) *mat.Matrix {
	x := mat.NewMatrix(rows, n)
	copy(x.Data, screenVec(rows*n, src))
	for i := 0; i < rows; i++ {
		if src.Intn(4) == 0 {
			x.Row(i)[src.Intn(n)] = exactOnlyVal(src)
		}
	}
	return x
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

// exactOnly reports whether binary16 cannot carry v: NaN, ±Inf, or a
// magnitude that rounds (through float32) to 65520 or more.
func exactOnly(v float64) bool { return !(math.Abs(float64(float32(v))) < 65520) }

// checkScreen fails t unless, on every implementation the machine
// supports, ScreenRow over each row of x lies within half its Bounds
// (the derived bound; the stored one is twice it) of the exact chains
// Dot and the sum of squares under Norm2, with the squares and without
// them (+0 then), or the row's bounds are infinite because it holds a
// value binary16 cannot carry or wmax is outside [2⁻⁶⁴, 2⁶⁴].
func checkScreen(t testing.TB, name string, x *mat.Matrix, wmax float64, w, prev []float64) {
	m := mat.NewScreenMatrix(x, wmax)
	for i := 0; i < x.Rows; i++ {
		checkScreenRow(t, name, &m, x, i, wmax, w, prev)
	}
}

// checkScreenRow is checkScreen on row i of x, m being its ScreenMatrix.
func checkScreenRow(t testing.TB, name string, m *mat.ScreenMatrix, x *mat.Matrix, i int, wmax float64, w, prev []float64) {
	defer mat.SetKernelISA("auto")
	row := x.Row(i)
	dot, sq := m.Bounds(i)
	rowExactOnly := false
	for _, v := range row {
		rowExactOnly = rowExactOnly || exactOnly(v)
	}
	if rowExactOnly || !(wmax >= 0x1p-64 && wmax <= 0x1p64) {
		if !math.IsInf(dot, 1) || !math.IsInf(sq, 1) {
			t.Fatalf("%s row %d: bounds %v, %v, want infinite", name, i, dot, sq)
		}
		return
	}
	if !(dot >= 0 && sq >= 0) || math.IsInf(dot, 0) || math.IsInf(sq, 0) {
		t.Fatalf("%s row %d: bounds %v, %v", name, i, dot, sq)
	}
	want := [4]float64{mat.Dot(row, w), mat.Dot(row, prev), sumSq(row, w), sumSq(row, prev)}
	for _, isa := range screenISAs {
		if mat.SetKernelISA(isa) != isa {
			continue
		}
		for _, squares := range []bool{false, true} {
			var out mat.Screen
			mat.ScreenRow(&out, m, i, (i+1)%x.Rows, w, prev, squares)
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

// checkScreenAdversarial is checkScreen with weights that make each
// row's rounding error count in full: w_q = ±wmax with the sign of
// x̂_q − x_q, so that x̂·w − x·w = wmax·Σ|x̂_q − x_q|, and prev = wmax
// where |x̂_q| > |x_q| and 0 elsewhere, so that every square it weighs
// grew.
func checkScreenAdversarial(t testing.TB, name string, x *mat.Matrix, wmax float64) {
	m := mat.NewScreenMatrix(x, wmax)
	w, prev := make([]float64, x.Cols), make([]float64, x.Cols)
	for i := 0; i < x.Rows; i++ {
		for q, h := range m.Row(i) {
			v, vh := x.Row(i)[q], halfFloat(h)
			w[q], prev[q] = math.Copysign(wmax, vh-v), 0
			if math.Abs(vh) > math.Abs(v) {
				prev[q] = wmax
			}
		}
		checkScreenRow(t, name+" adversarial", &m, x, i, wmax, w, prev)
	}
}

// TestScreenWithinBound: on every implementation, each of ScreenRow's
// four sums lies within the derived bound of the exact chain, on rows
// with signed zeros, ones, 65504 and what rounds to it, binary16
// subnormals and what rounds to them or to 0, float32 and float64
// subnormals, ties and uniform values, and on rendered digit rows, at n
// 1 to 17, 49, 196 and 784, against weights in boxes of three sizes
// that reach both ends and against weights that make each row's
// rounding error count in full. Rows holding NaN, ±Inf or a magnitude that
// rounds to 65520 or more get infinite bounds, as does every row when
// wmax is outside [2⁻⁶⁴, 2⁶⁴].
func TestScreenWithinBound(t *testing.T) {
	lengths := []int{49, 196, 784}
	for n := 1; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, wmax := range []float64{1, 0.25, 3} {
			src := rng.New(uint64(n)*7 + uint64(wmax*4))
			x := screenRows(12, n, src)
			for trial := 0; trial < 4; trial++ {
				w, prev := boxVec(n, wmax, src), boxVec(n, wmax, src)
				checkScreen(t, fmt.Sprintf("n %d wmax %v trial %d", n, wmax, trial), x, wmax, w, prev)
			}
			checkScreenAdversarial(t, fmt.Sprintf("n %d wmax %v", n, wmax), x, wmax)
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
		checkScreenAdversarial(t, fmt.Sprintf("digits n %d", x.Cols), x, 1)
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
	f.Add(uint64(2), uint16(784), 0.25, 0x1p-20, 1.0)
	f.Add(uint64(3), uint16(7), 3.0, 65504.0, math.Copysign(0, -1))
	f.Add(uint64(4), uint16(17), 1.0, 0x1p-25, 65520.0)
	f.Add(uint64(5), uint16(9), 0.5, 1+0x1p-11, math.NaN())
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, wmax, a, b float64) {
		if n == 0 || n > 1000 || !(wmax > 0) || math.IsInf(wmax, 0) {
			t.Skip()
		}
		src := rng.New(seed)
		x := screenRows(3, int(n), src)
		x.Data[src.Intn(len(x.Data))] = a
		x.Data[src.Intn(len(x.Data))] = b
		checkScreen(t, "fuzz", x, wmax, boxVec(int(n), wmax, src), boxVec(int(n), wmax, src))
		checkScreenAdversarial(t, "fuzz", x, wmax)
	})
}

// TestNewScreenMatrixSameOnEveryISA: every implementation rounds each
// element to the same binary16 bits and gives every row the same two
// bounds, bit for bit, on screenRows matrices at n 1 to 17, 49, 196 and
// 784 and on a sweep of float32 bit patterns (every 4,099th, which
// reaches every exponent, both signs, subnormals, infinities and NaNs);
// and the bits are the binary16 nearest float32(v), ties to even.
func TestNewScreenMatrixSameOnEveryISA(t *testing.T) {
	defer mat.SetKernelISA("auto")
	var cases []*mat.Matrix
	lengths := []int{49, 196, 784}
	for n := 1; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		cases = append(cases, screenRows(20, n, rng.New(uint64(n)+31)))
	}
	sweep := mat.NewMatrix((1<<32/4099+783)/784, 784)
	for k := range sweep.Data {
		sweep.Data[k] = float64(math.Float32frombits(uint32(k * 4099)))
	}
	cases = append(cases, sweep)
	for _, x := range cases {
		mat.SetKernelISA("generic")
		want := mat.NewScreenMatrix(x, 1)
		for i := 0; i < x.Rows; i++ {
			for q, h := range want.Row(i) {
				if v := x.Row(i)[q]; !nearestHalf(float32(v), h) {
					t.Fatalf("n %d row %d: %v rounds to binary16 %#04x", x.Cols, i, v, h)
				}
			}
		}
		for _, isa := range screenISAs[1:] {
			if mat.SetKernelISA(isa) != isa {
				continue
			}
			got := mat.NewScreenMatrix(x, 1)
			for i := 0; i < x.Rows; i++ {
				for q, h := range got.Row(i) {
					if h != want.Row(i)[q] {
						t.Fatalf("%s n %d row %d: %v rounds to %#04x, generic %#04x", isa, x.Cols, i, x.Row(i)[q], h, want.Row(i)[q])
					}
				}
				d, s := got.Bounds(i)
				wd, ws := want.Bounds(i)
				if math.Float64bits(d) != math.Float64bits(wd) || math.Float64bits(s) != math.Float64bits(ws) {
					t.Fatalf("%s n %d row %d: bounds %v, %v, generic %v, %v", isa, x.Cols, i, d, s, wd, ws)
				}
			}
		}
	}
}

// halfFloat returns the value of the binary16 bits h, written from the
// format's definition.
func halfFloat(h uint16) float64 {
	sign, exp, frac := 1.0, int(h>>10)&31, float64(h&0x3ff)
	if h&0x8000 != 0 {
		sign = -1
	}
	switch exp {
	case 0:
		return sign * frac * 0x1p-24
	case 31:
		if frac != 0 {
			return math.NaN()
		}
		return sign * math.Inf(1)
	}
	return sign * (1 + frac/1024) * math.Ldexp(1, exp-15)
}

// nearestHalf reports whether h is f rounded to binary16, ties to even:
// NaN for NaN, ±Inf from ±65520 on, and otherwise no binary16 value
// nearer f, and on a tie an even fraction.
func nearestHalf(f float32, h uint16) bool {
	v, got := float64(f), halfFloat(h)
	switch {
	case math.IsNaN(v):
		return math.IsNaN(got) && h&0x200 != 0
	case math.Abs(v) >= 65520:
		return math.IsInf(got, int(math.Copysign(1, v)))
	case math.IsNaN(got) || math.IsInf(got, 0) || math.Signbit(got) != math.Signbit(v):
		return false
	}
	for _, nb := range []uint16{h - 1, h + 1} { // the neighbours, same sign
		if nb&0x7fff == 0x7fff || nb&0x7c00 == 0x7c00 || (h&0x7fff == 0 && nb == h-1) {
			continue
		}
		d, dn := math.Abs(v-got), math.Abs(v-halfFloat(nb))
		if dn < d || dn == d && h&1 != 0 {
			return false
		}
	}
	return true
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
	for _, isa := range screenISAs {
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
	for _, isa := range screenISAs {
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

// BenchmarkNewScreenMatrix times the binary16 copy and bounds of a Full
// (4,000 x 784) training matrix on each implementation.
func BenchmarkNewScreenMatrix(b *testing.B) {
	src := rng.New(1)
	x := mat.NewMatrix(4000, 784)
	for i := range x.Data {
		x.Data[i] = src.Float64()
	}
	for _, isa := range screenISAs {
		if got := mat.SetKernelISA(isa); got != isa {
			continue
		}
		b.Run(isa, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mat.NewScreenMatrix(x, 1)
			}
		})
	}
	mat.SetKernelISA("auto")
}
