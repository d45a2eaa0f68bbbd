package mat

// Batched-kernel dispatch. The lane-fused matrix-vector kernel behind
// Tensor3.MulVecLanesTo has one generic Go implementation plus, on
// amd64, hand-written AVX2 and AVX-512 versions that vectorize across
// trial lanes only — every lane stays an independent scalar IEEE-754
// chain (separate mul and add, no FMA), so all implementations produce
// bit-identical results and the fastest supported one is selected at
// startup. The eight-row scorer behind ScoreRows8 follows the same
// rule with one row per lane, the digit-render kernels (render.go) with
// one pixel per lane, and StepRow (screen.go) with one weight per lane.
// Tests force specific implementations through SetKernelISA to assert
// that equivalence. ScreenRow alone is bounded rather than exact: its
// results only pick branches that its error bound proves.

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

// Scores8 holds ScoreRows8's outputs, one per row: the inner product of
// the row x with v and the sum of squares of x∘v.
type Scores8 struct {
	Dot, Sq [8]float64
}

// scoreRows8Active is the implementation ScoreRows8 dispatches to;
// chosen at init, overridden by SetKernelISA.
var scoreRows8Active = scoreRows8Generic

// ScoreRows8 scores eight rows of a row-major matrix against one vector
// in one pass over their features. Row k is data[off[k] : off[k]+len(v)];
// rows may repeat. It sets out.Dot[k] to x·v and, when squares is set,
// out.Sq[k] to Σ(x∘v)² (0 otherwise).
//
// Every output is one IEEE-754 chain over the features in ascending
// order, multiplied then added with separate instructions, so out.Dot[k]
// is bit-identical to Dot(x, v), and out.Sq[k] to the sum Norm2 takes
// the square root of for x∘v. It panics unless every row lies inside
// data; it allocates nothing.
func ScoreRows8(out *Scores8, data []float64, off *[8]int, v []float64, squares bool) {
	n := len(v)
	for _, o := range off {
		if o < 0 || o > len(data)-n {
			panic("mat: ScoreRows8 row out of range")
		}
	}
	scoreRows8Active(out, data, off, v, squares)
}

// scoreRows8Generic is the portable reference implementation of
// ScoreRows8; the SIMD version must match it bit for bit. It walks four
// rows at a time so that four (or, with squares, eight) independent
// chains overlap. Each chain is written as Dot's loop writes it, and
// each square as Norm2 sums x∘v: the product is rounded, then squared,
// then added.
func scoreRows8Generic(out *Scores8, data []float64, off *[8]int, v []float64, squares bool) {
	n := len(v)
	for k := 0; k < 8; k += 4 {
		a := data[off[k] : off[k]+n]
		// Equal lengths let the compiler drop the loop's bounds checks.
		b := data[off[k+1] : off[k+1]+n][:len(a)]
		c := data[off[k+2] : off[k+2]+n][:len(a)]
		d := data[off[k+3] : off[k+3]+n][:len(a)]
		v := v[:len(a)]
		var da, db, dc, dd, sa, sb, sc, sd float64
		if squares {
			for i, ai := range a {
				vi := v[i]
				ta, tb, tc, td := ai*vi, b[i]*vi, c[i]*vi, d[i]*vi
				da += ta
				db += tb
				dc += tc
				dd += td
				sa += ta * ta
				sb += tb * tb
				sc += tc * tc
				sd += td * td
			}
		} else {
			for i, ai := range a {
				vi := v[i]
				da += ai * vi
				db += b[i] * vi
				dc += c[i] * vi
				dd += d[i] * vi
			}
		}
		out.Dot[k], out.Dot[k+1], out.Dot[k+2], out.Dot[k+3] = da, db, dc, dd
		out.Sq[k], out.Sq[k+1], out.Sq[k+2], out.Sq[k+3] = sa, sb, sc, sd
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
// All implementations are bit-identical, but for ScreenRow's, which
// stay within its bound; this knob exists for the equivalence tests and
// benchmarks, not for correctness.
func SetKernelISA(name string) string {
	installKernelISA(name)
	return kernelISAName
}
