package mat

import (
	"math"
	"testing"

	"vortex/internal/rng"
)

// fusePair lays a differential pair side by side as a width-24 block:
// row i holds pos's row, then neg's row, then zero padding.
func fusePair(pos, neg *Matrix) []float64 {
	const width = 24
	b := make([]float64, pos.Rows*width)
	for i := 0; i < pos.Rows; i++ {
		copy(b[i*width:], pos.Row(i))
		copy(b[i*width+pos.Cols:], neg.Row(i))
	}
	return b
}

// randomPair draws a rows x 10 pair of signed weight matrices.
func randomPair(rows int, src *rng.Source) (pos, neg *Matrix) {
	pos, neg = NewMatrix(rows, 10), NewMatrix(rows, 10)
	for i := range pos.Data {
		pos.Data[i] = src.Float64()*2 - 1
		neg.Data[i] = src.Float64()*2 - 1
	}
	return pos, neg
}

// TestMulVecBlock24MatchesMulVecTo pins the fused differential read:
// one MulVecBlockTo over a width-24 block is bit-identical to two
// MulVecTo calls on its halves, and leaves the padding at +0, on every
// implementation the machine supports.
func TestMulVecBlock24MatchesMulVecTo(t *testing.T) {
	defer SetKernelISA("auto")
	for _, isa := range []string{"generic", "avx2", "avx512"} {
		if got := SetKernelISA(isa); got != isa {
			t.Logf("ISA %s unavailable (got %s), skipping", isa, got)
			continue
		}
		for _, rows := range []int{1, 49, 784, 794} {
			for seed := uint64(1); seed <= 4; seed++ {
				src := rng.New(seed * 131)
				pos, neg := randomPair(rows, src)
				block := fusePair(pos, neg)
				x := sparseVec(rows, src)
				dst := make([]float64, 24)
				MulVecBlockTo(dst, block, x)
				wantP, wantN := make([]float64, 10), make([]float64, 10)
				pos.MulVecTo(wantP, x)
				neg.MulVecTo(wantN, x)
				want := append(append(wantP, wantN...), 0, 0, 0, 0)
				for k, w := range want {
					if math.Float64bits(dst[k]) != math.Float64bits(w) {
						t.Fatalf("%s rows %d seed %d: dst[%d] = %x, two MulVecTo %x",
							isa, rows, seed, k, math.Float64bits(dst[k]), math.Float64bits(w))
					}
				}
			}
		}
	}
}

// TestMulVecBlockZeroAndNaNDrive checks the edge drives on every
// implementation: an all-zero drive overwrites dst with +0, and a NaN
// drive entry poisons every output.
func TestMulVecBlockZeroAndNaNDrive(t *testing.T) {
	defer SetKernelISA("auto")
	for _, isa := range []string{"generic", "avx2", "avx512"} {
		if SetKernelISA(isa) != isa {
			continue
		}
		pos, neg := randomPair(5, rng.New(9))
		block := fusePair(pos, neg)
		dst := make([]float64, 24)
		for k := range dst {
			dst[k] = 42 // must be overwritten
		}
		MulVecBlockTo(dst, block, make([]float64, 5))
		for k, v := range dst {
			if v != 0 || math.Signbit(v) {
				t.Fatalf("%s zero drive: dst[%d] = %v, want +0", isa, k, v)
			}
		}
		MulVecBlockTo(dst, block, []float64{1, 0, math.NaN(), 0, 0.5})
		for k, v := range dst {
			if !math.IsNaN(v) {
				t.Fatalf("%s NaN drive: dst[%d] = %v, want NaN", isa, k, v)
			}
		}
	}
}

// TestMulVecBlockAllocsZero: the fused read allocates nothing, on every
// implementation.
func TestMulVecBlockAllocsZero(t *testing.T) {
	defer SetKernelISA("auto")
	src := rng.New(2)
	pos, neg := randomPair(784, src)
	block := fusePair(pos, neg)
	x := sparseVec(784, src)
	dst := make([]float64, 24)
	for _, isa := range []string{"generic", "avx2", "avx512"} {
		if SetKernelISA(isa) != isa {
			continue
		}
		if allocs := testing.AllocsPerRun(100, func() { MulVecBlockTo(dst, block, x) }); allocs != 0 {
			t.Fatalf("%s: MulVecBlockTo allocates %v per run, want 0", isa, allocs)
		}
	}
}
