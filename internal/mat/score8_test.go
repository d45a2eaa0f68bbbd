package mat_test

import (
	"fmt"
	"math"
	"testing"

	"vortex/internal/dataset"
	"vortex/internal/mat"
	"vortex/internal/rng"
)

// sumSq is the sum Norm2 takes the square root of for x∘v.
func sumSq(x, v []float64) float64 {
	s := 0.0
	for _, t := range mat.HadamardVec(x, v) {
		s += t * t
	}
	return s
}

// awkwardVec draws n values that a dot chain rounds differently: exact
// zeros of both signs, negatives, subnormals and magnitudes from 1e-3
// to 1e3.
func awkwardVec(n int, src *rng.Source) []float64 {
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

// sameFloat reports whether a and b are the same bits, or both NaN
// (a NaN's payload is not part of the contract).
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkScores fails t unless every lane of ScoreRows8 over off is the
// scalar chain: Dot against v, and the sum of squares when asked for
// (+0 otherwise).
func checkScores(t *testing.T, name string, x *mat.Matrix, off [8]int, v []float64) {
	t.Helper()
	for _, squares := range []bool{false, true} {
		var out mat.Scores8
		mat.ScoreRows8(&out, x.Data, &off, v, squares)
		for k, o := range off {
			row := x.Data[o : o+len(v)]
			want := [2]float64{mat.Dot(row, v), 0}
			if squares {
				want[1] = sumSq(row, v)
			}
			got := [2]float64{out.Dot[k], out.Sq[k]}
			for j := range got {
				if !sameFloat(got[j], want[j]) {
					t.Fatalf("%s squares %v lane %d (offset %d) output %d: %x, scalar %x",
						name, squares, k, o, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
				}
			}
		}
	}
}

// TestScoreRows8MatchesScalar: on every implementation the machine
// supports, each lane of ScoreRows8 is bit-identical to Dot and to the
// sum of squares under Norm2, on random rows with signed zeros,
// subnormals and wide magnitudes and on rendered digit rows, at n 1 to
// 784, for blocks ending at every row of matrices of every row count
// mod 8, and for scattered and repeated offsets. With NaN or infinite
// terms each output is NaN exactly where the scalar chain's is, and the
// same infinity otherwise.
func TestScoreRows8MatchesScalar(t *testing.T) {
	defer mat.SetKernelISA("auto")
	digits := map[int]*mat.Matrix{}
	for _, factor := range []int{1, 2, 4} {
		train, _, err := dataset.Digits(2, 0, factor, 3)
		if err != nil {
			t.Fatal(err)
		}
		x, _ := train.ToMatrix()
		digits[x.Cols] = x
	}
	for _, isa := range []string{"generic", "avx512"} {
		if got := mat.SetKernelISA(isa); got != isa {
			t.Logf("ISA %s unavailable (got %s), skipping", isa, got)
			continue
		}
		for _, n := range []int{1, 5, 7, 49, 128, 196, 784} {
			src := rng.New(uint64(n))
			v := awkwardVec(n, src)
			for s := 8; s < 16; s++ {
				x := mat.NewMatrix(s, n)
				copy(x.Data, awkwardVec(s*n, src))
				for last := 7; last < s; last++ {
					var off [8]int
					for k := range off {
						off[k] = (last - 7 + k) * n
					}
					checkScores(t, fmt.Sprintf("%s n %d s %d rows to %d", isa, n, s, last), x, off, v)
				}
				var off [8]int
				for k := range off {
					off[k] = src.Intn(s) * n
				}
				off[3] = off[5]
				checkScores(t, fmt.Sprintf("%s n %d s %d scattered", isa, n, s), x, off, v)
			}
			// Poison one term of some rows, and sometimes of v, with NaN
			// or an infinity.
			specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
			x := mat.NewMatrix(8, n)
			copy(x.Data, awkwardVec(8*n, src))
			for k := 0; k < 8; k++ {
				if src.Intn(2) == 0 {
					x.Row(k)[src.Intn(n)] = specials[src.Intn(3)]
				}
			}
			vs := append([]float64(nil), v...)
			if src.Intn(2) == 0 {
				vs[src.Intn(n)] = specials[src.Intn(3)]
			}
			checkScores(t, fmt.Sprintf("%s n %d specials", isa, n), x, [8]int{0, n, 2 * n, 3 * n, 4 * n, 5 * n, 6 * n, 7 * n}, vs)
			if x := digits[n]; x != nil {
				for first := 0; first+8 <= x.Rows; first += 3 {
					var off [8]int
					for k := range off {
						off[k] = (first + k) * n
					}
					checkScores(t, fmt.Sprintf("%s digits n %d rows from %d", isa, n, first), x, off, v)
				}
			}
		}
	}
}

// TestScoreRows8Panics: an offset that puts a row before or past the
// data panics on every implementation.
func TestScoreRows8Panics(t *testing.T) {
	defer mat.SetKernelISA("auto")
	data := make([]float64, 10*7)
	v := make([]float64, 7)
	good := [8]int{0, 7, 14, 21, 28, 35, 42, 63}
	for _, isa := range []string{"generic", "avx512"} {
		if got := mat.SetKernelISA(isa); got != isa {
			continue
		}
		var out mat.Scores8
		mat.ScoreRows8(&out, data, &good, v, true) // the last row fits exactly
		cases := map[string]func(){
			"negative offset": func() {
				off := good
				off[2] = -1
				mat.ScoreRows8(&out, data, &off, v, false)
			},
			"row past the end": func() {
				off := good
				off[7] = 64
				mat.ScoreRows8(&out, data, &off, v, true)
			},
			"rows longer than data": func() {
				mat.ScoreRows8(&out, data, &[8]int{}, make([]float64, 71), false)
			},
		}
		for name, f := range cases {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s %s: no panic", isa, name)
					}
				}()
				f()
			}()
		}
	}
}

// TestScoreRows8AllocsZero: ScoreRows8 allocates nothing.
func TestScoreRows8AllocsZero(t *testing.T) {
	x := mat.NewMatrix(16, 49)
	v := make([]float64, 49)
	var out mat.Scores8
	off := [8]int{0, 49, 98, 147, 196, 245, 294, 343}
	if allocs := testing.AllocsPerRun(50, func() { mat.ScoreRows8(&out, x.Data, &off, v, true) }); allocs != 0 {
		t.Fatalf("ScoreRows8 allocates %v per call, want 0", allocs)
	}
}

var scoreSink mat.Scores8

// BenchmarkScoreRows8 times one call over eight Full-size (784-feature)
// rows spread through a 4,000-row matrix, as the SGD pass visits them.
func BenchmarkScoreRows8(b *testing.B) {
	src := rng.New(1)
	x := mat.NewMatrix(4000, 784)
	for i := range x.Data {
		x.Data[i] = src.Float64()
	}
	v := src.NormVec(nil, 784, 0.1)
	for _, isa := range []string{"generic", "avx512"} {
		if got := mat.SetKernelISA(isa); got != isa {
			continue
		}
		for _, squares := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/squares=%v", isa, squares), func(b *testing.B) {
				var off [8]int
				for i := 0; i < b.N; i++ {
					for k := range off {
						off[k] = ((i*8 + k) * 1543 % 4000) * 784
					}
					mat.ScoreRows8(&scoreSink, x.Data, &off, v, squares)
				}
			})
		}
	}
	mat.SetKernelISA("auto")
}
