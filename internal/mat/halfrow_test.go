package mat

import (
	"math"
	"testing"

	"vortex/internal/rng"
)

// TestHalfRowLanesMatchGeneric: on every implementation, halfRow gives
// halfRowGeneric's binary16 bits and its four lane sums bit for bit
// (NaN payloads aside), lane by lane, not only the bounds they add up
// to, at n 1 to 33, 49, 196 and 784, on rows with zeros, ties, binary16
// subnormals, values that round past 65504, NaN and infinities.
func TestHalfRowLanesMatchGeneric(t *testing.T) {
	defer SetKernelISA("auto")
	specials := []float64{0, math.Copysign(0, -1), 1, 1 + 0x1p-11, 65504, 65520, 0x1p-25, 3 * 0x1p-25, 0x1p-30, math.Inf(-1), math.NaN()}
	lengths := []int{49, 196, 784}
	for n := 1; n <= 33; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		src := rng.New(uint64(n))
		x := make([]float64, n)
		for q := range x {
			x[q] = (src.Float64()*2 - 1) * math.Ldexp(1, src.Intn(40)-24)
			if src.Intn(8) == 0 {
				x[q] = specials[src.Intn(len(specials))]
			}
		}
		want, wantAcc := make([]uint16, n), new([4][16]float64)
		halfRowGeneric(want, x, wantAcc)
		for _, isa := range []string{"avx2", "avx512"} {
			if SetKernelISA(isa) != isa {
				continue
			}
			got, gotAcc := make([]uint16, n), new([4][16]float64)
			halfRow(got, x, gotAcc)
			for q := range want {
				if got[q] != want[q] {
					t.Fatalf("%s n %d: element %d (%v) is %#04x, generic %#04x", isa, n, q, x[q], got[q], want[q])
				}
			}
			for k := range wantAcc {
				for l, v := range wantAcc[k] {
					g := gotAcc[k][l]
					if math.Float64bits(g) != math.Float64bits(v) && !(math.IsNaN(g) && math.IsNaN(v)) {
						t.Fatalf("%s n %d: sum %d lane %d is %v, generic %v", isa, n, k, l, g, v)
					}
				}
			}
		}
	}
}
