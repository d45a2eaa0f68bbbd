package mat

// Batched-kernel dispatch. The lane-fused matrix-vector kernel behind
// Tensor3.MulVecLanesTo has one generic Go implementation plus, on
// amd64, hand-written AVX2 and AVX-512 versions that vectorize across
// trial lanes only — every lane stays an independent scalar IEEE-754
// chain (separate mul and add, no FMA), so all implementations produce
// bit-identical results and the fastest supported one is selected at
// startup. The eight-row scorer behind ScoreRows8 follows the same
// rule with one row per lane, and the digit-render kernels (render.go)
// with one pixel per lane. Tests force specific implementations
// through SetKernelISA to assert that equivalence.

// mulVecLanesFunc is the signature of one fused-kernel implementation:
// dst[k] += x[i]*data[i*l+k] for every row i, where l is the lane-block
// length (Cols*Lanes) and dst has length l.
type mulVecLanesFunc func(dst, data, x []float64, l int)

// mulVecLanesActive is the implementation MulVecLanesTo dispatches to;
// chosen at init, overridden by SetKernelISA.
var mulVecLanesActive mulVecLanesFunc = mulVecLanesGeneric

// kernelISAName names the active implementation ("generic", "avx2" or
// "avx512").
var kernelISAName = "generic"

// mulVecLanes80Active and mulVecLanes24Active, when non-nil, are
// register-resident specializations that keep the whole accumulator
// block in vector registers across all rows: l == 80 is the 10-column,
// 8-lane classifier-read shape of the trial tensors, l == 24 the fused
// differential pair of one 10-class system (MulVecBlockTo). Both are
// bit-identical to the general kernels.
var mulVecLanes80Active, mulVecLanes24Active func(dst, data, x []float64)

// mulVecLanes runs the active fused-kernel implementation, falling back
// to the generic one when the lane-block length does not meet the SIMD
// alignment contract (a multiple of TrialLanes doubles).
func mulVecLanes(dst, data, x []float64, l int) {
	if l == 80 && mulVecLanes80Active != nil {
		mulVecLanes80Active(dst, data, x)
		return
	}
	if l == 24 && mulVecLanes24Active != nil {
		mulVecLanes24Active(dst, data, x)
		return
	}
	if l%TrialLanes != 0 {
		mulVecLanesGeneric(dst, data, x, l)
		return
	}
	mulVecLanesActive(dst, data, x, l)
}

// mulVecLanesGeneric is the portable reference implementation; the SIMD
// versions must match it bit for bit.
//
// Zero drive entries are NOT skipped: a skip branch on x[i] mispredicts
// on real crossbar drives (each sample carries a different zero pattern,
// far beyond predictor reach) and costs more than the loads it saves
// from an L2-resident tensor — measured ~30% of the fused read path.
// Processing them is exact: the tensor holds finite conductances and a
// `dst[k] += 0*w` contribution is an IEEE-754 identity (the accumulator
// is never -0, since products cancel to +0), so all implementations
// remain bit-identical to a per-lane MulVecTo loop.
func mulVecLanesGeneric(dst, data, x []float64, l int) {
	for i, xi := range x {
		row := data[i*l : i*l+l]
		for k, w := range row {
			dst[k] += xi * w
		}
	}
}

// MulVecBlockTo computes the read y = x * B of a row-major block B with
// len(x) rows and width len(dst): dst[k] = sum_i x[i]*data[i*len(dst)+k],
// overwriting dst. Matrices that share one drive vector can sit side by
// side in B and be read in one call — ncs reads a differential pair's
// positive and negative arrays this way — and a width padded to a
// multiple of TrialLanes keeps the call on the SIMD kernels.
//
// Every output is one IEEE-754 chain over the rows in ascending order,
// multiplied then added with separate instructions, so for finite data
// each column block is bit-identical to Matrix.MulVecTo (zero drive
// rows are processed rather than skipped; see mulVecLanesGeneric). It
// allocates nothing.
func MulVecBlockTo(dst, data, x []float64) {
	l := len(dst)
	if len(data) != len(x)*l {
		panic("mat: MulVecBlockTo dimension mismatch")
	}
	for k := range dst {
		dst[k] = 0
	}
	if l == 0 {
		return
	}
	mulVecLanes(dst, data, x, l)
}

// Scores8 holds ScoreRows8's outputs, one per row: the inner products
// of the row x with w and with prev, and the sums of squares of x∘w and
// of x∘prev.
type Scores8 struct {
	Dot, DotPrev [8]float64
	Sq, SqPrev   [8]float64
}

// scoreRows8Active is the implementation ScoreRows8 dispatches to;
// chosen at init, overridden by SetKernelISA.
var scoreRows8Active = scoreRows8Generic

// ScoreRows8 scores eight rows of a row-major matrix against two weight
// vectors in one pass over their features. Row k is
// data[off[k] : off[k]+len(w)]; rows may repeat. It sets out.Dot[k] to
// x·w and out.DotPrev[k] to x·prev, and, when squares is set,
// out.Sq[k] to Σ(x∘w)² and out.SqPrev[k] to Σ(x∘prev)² (both 0
// otherwise).
//
// Every output is one IEEE-754 chain over the features in ascending
// order, multiplied then added with separate instructions, so out.Dot[k]
// is bit-identical to Dot(x, w), and out.Sq[k] to the sum Norm2 takes
// the square root of for v = x∘w. It panics unless len(prev) ==
// len(w) and every row lies inside data; it allocates nothing.
func ScoreRows8(out *Scores8, data []float64, off *[8]int, w, prev []float64, squares bool) {
	n := len(w)
	if len(prev) != n {
		panic("mat: ScoreRows8 length mismatch")
	}
	for _, o := range off {
		if o < 0 || o > len(data)-n {
			panic("mat: ScoreRows8 row out of range")
		}
	}
	scoreRows8Active(out, data, off, w, prev, squares)
}

// scoreRows8Generic is the portable reference implementation of
// ScoreRows8; the SIMD version must match it bit for bit. It walks two
// rows at a time so that four (or, with squares, eight) independent
// chains overlap. Each chain is written as Dot's loop writes it, and
// each square as Norm2 sums v = x∘w: the product is rounded, then
// squared, then added.
func scoreRows8Generic(out *Scores8, data []float64, off *[8]int, w, prev []float64, squares bool) {
	n := len(w)
	for k := 0; k < 8; k += 2 {
		a := data[off[k] : off[k]+n]
		// Equal lengths let the compiler drop the loop's bounds checks.
		b, w, prev := data[off[k+1] : off[k+1]+n][:len(a)], w[:len(a)], prev[:len(a)]
		var da, db, pa, pb float64
		var sa, sb, qa, qb float64
		if squares {
			for i, ai := range a {
				wi, pi := w[i], prev[i]
				ta, tb := ai*wi, b[i]*wi
				ua, ub := ai*pi, b[i]*pi
				da += ta
				db += tb
				pa += ua
				pb += ub
				sa += ta * ta
				sb += tb * tb
				qa += ua * ua
				qb += ub * ub
			}
		} else {
			for i, ai := range a {
				wi, pi := w[i], prev[i]
				da += ai * wi
				db += b[i] * wi
				pa += ai * pi
				pb += b[i] * pi
			}
		}
		out.Dot[k], out.Dot[k+1] = da, db
		out.DotPrev[k], out.DotPrev[k+1] = pa, pb
		out.Sq[k], out.Sq[k+1] = sa, sb
		out.SqPrev[k], out.SqPrev[k+1] = qa, qb
	}
}

// KernelISA reports which fused-kernel implementation is active:
// "generic", "avx2" or "avx512".
func KernelISA() string { return kernelISAName }

// SetKernelISA selects a fused-kernel implementation by name —
// "generic", "avx2", "avx512", or "auto" for the best one the CPU
// supports — and reports the name actually installed. Requesting an ISA
// the CPU lacks (or any name on a non-amd64 build) quietly installs the
// best supported one instead, so callers can probe without crashing.
// All implementations are bit-identical; this knob exists for the
// equivalence tests and benchmarks, not for correctness.
func SetKernelISA(name string) string {
	installKernelISA(name)
	return kernelISAName
}
