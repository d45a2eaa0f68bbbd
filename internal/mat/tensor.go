package mat

import "fmt"

// TrialLanes is the trial-lane width of the structure-of-arrays tensors
// used by the batched Monte-Carlo kernels: trials are processed in
// groups of TrialLanes, laid out contiguously in the minor dimension so
// one SIMD vector spans TrialLanes trials of the same matrix cell. The
// width is fixed at 8 — one AVX-512 register, two AVX2 registers — and
// every lane-group tensor pads its trailing group up to it.
const TrialLanes = 8

// Tensor3 is a dense trials x rows x cols tensor stored
// structure-of-arrays: the trial index is the minor (fastest-varying)
// dimension, so Data[(i*Cols+j)*Lanes + t] holds cell (i, j) of trial t.
// This is the batched counterpart of Matrix for Monte-Carlo sweeps whose
// trials share one shape and differ only in per-cell values: a fused
// kernel streams each cell once and applies it to every trial lane in a
// single vector operation, instead of walking one small matrix per
// trial.
//
// Lanes is the padded trial capacity (a multiple of TrialLanes keeps the
// SIMD kernels tail-free); trials beyond the logical count simply carry
// zeros and waste a lane. The zero value is not usable; use NewTensor3.
type Tensor3 struct {
	Rows, Cols int
	Lanes      int       // padded trial capacity, minor dimension
	Data       []float64 // len == Rows*Cols*Lanes, lane-minor layout
}

// NewTensor3 returns a zero-filled rows x cols tensor with the given
// lane capacity. Lanes must be a positive multiple of TrialLanes so the
// vector kernels never need tail handling.
func NewTensor3(rows, cols, lanes int) *Tensor3 {
	if rows < 0 || cols < 0 {
		panic("mat: negative tensor dimension")
	}
	if lanes <= 0 || lanes%TrialLanes != 0 {
		panic(fmt.Sprintf("mat: tensor lanes %d must be a positive multiple of %d", lanes, TrialLanes))
	}
	return &Tensor3{
		Rows:  rows,
		Cols:  cols,
		Lanes: lanes,
		Data:  make([]float64, rows*cols*lanes),
	}
}

// Index returns the flat Data index of cell (i, j) in trial lane t.
func (g *Tensor3) Index(i, j, t int) int {
	if i < 0 || i >= g.Rows || j < 0 || j >= g.Cols || t < 0 || t >= g.Lanes {
		panic(fmt.Sprintf("mat: tensor index (%d,%d,%d) out of %dx%dx%d", i, j, t, g.Rows, g.Cols, g.Lanes))
	}
	return (i*g.Cols+j)*g.Lanes + t
}

// At returns cell (i, j) of trial lane t.
func (g *Tensor3) At(i, j, t int) float64 { return g.Data[g.Index(i, j, t)] }

// Set assigns cell (i, j) of trial lane t.
func (g *Tensor3) Set(i, j, t int, v float64) { g.Data[g.Index(i, j, t)] = v }

// Lane extracts trial lane t into a rows x cols matrix — the per-trial
// view of the batch, used by parity tests and scalar fallbacks.
func (g *Tensor3) Lane(t int) *Matrix {
	if t < 0 || t >= g.Lanes {
		panic("mat: tensor lane out of range")
	}
	m := NewMatrix(g.Rows, g.Cols)
	for i := 0; i < g.Rows; i++ {
		for j := 0; j < g.Cols; j++ {
			m.Data[i*g.Cols+j] = g.Data[(i*g.Cols+j)*g.Lanes+t]
		}
	}
	return m
}

// SetLane writes a rows x cols matrix into trial lane t.
func (g *Tensor3) SetLane(t int, m *Matrix) {
	if t < 0 || t >= g.Lanes {
		panic("mat: tensor lane out of range")
	}
	if m.Rows != g.Rows || m.Cols != g.Cols {
		panic("mat: SetLane dimension mismatch")
	}
	for i := 0; i < g.Rows; i++ {
		for j := 0; j < g.Cols; j++ {
			g.Data[(i*g.Cols+j)*g.Lanes+t] = m.Data[i*g.Cols+j]
		}
	}
}

// MulVecLanesTo computes, for every trial lane at once, the crossbar
// read y_t = x * G_t: dst[j*Lanes+t] = sum_i x[i] * At(i,j,t). dst has
// length Cols*Lanes and is overwritten. x has length Rows.
//
// The accumulation order per (j, t) output — ascending i, one multiply
// and one add per term — matches Matrix.MulVecTo's, and every lane is
// an independent IEEE-754 scalar chain, so each lane's result is
// bit-identical to a per-trial MulVecTo against Lane(t) for the finite
// tensors this kernel serves (zero drive rows are processed rather than
// skipped; their 0*w contributions are exact identities — see
// mulVecLanesGeneric). That equivalence is what lets the batched
// Monte-Carlo path reproduce per-trial output byte for byte; the SIMD
// implementations preserve it by vectorizing only across lanes (mul and
// add stay separate — no FMA contraction).
func (g *Tensor3) MulVecLanesTo(dst, x []float64) {
	if len(x) != g.Rows {
		panic("mat: MulVecLanesTo dimension mismatch")
	}
	if len(dst) != g.Cols*g.Lanes {
		panic("mat: MulVecLanesTo dst length mismatch")
	}
	MulVecBlockTo(dst, g.Data, x)
}

// ScaleLanesTo writes dst[k] = alpha * src[k] over one lane block of
// length len(dst) — the batched counterpart of scaling a matrix, used
// to apply a shared factor (for instance a read voltage) across every
// trial at once. dst may alias src.
func ScaleLanesTo(dst, src []float64, alpha float64) {
	if len(dst) != len(src) {
		panic("mat: ScaleLanesTo length mismatch")
	}
	for k, v := range src {
		dst[k] = alpha * v
	}
}

// ArgMaxLanes computes, for each of the first n trial lanes, the argmax
// over j of scores[j*lanes+t], writing the winning index per lane into
// out[:n]. Ties resolve to the lowest j, matching ArgMax, so a batched
// classification decision is identical to per-trial ArgMax calls.
func ArgMaxLanes(out []int, scores []float64, cols, lanes, n int) {
	if cols <= 0 {
		panic("mat: ArgMaxLanes of empty score rows")
	}
	if n < 0 || n > lanes {
		panic("mat: ArgMaxLanes lane count out of range")
	}
	if len(scores) < cols*lanes || len(out) < n {
		panic("mat: ArgMaxLanes buffer length mismatch")
	}
	for t := 0; t < n; t++ {
		best, bestV := 0, scores[t]
		for j := 1; j < cols; j++ {
			if v := scores[j*lanes+t]; v > bestV {
				best, bestV = j, v
			}
		}
		out[t] = best
	}
}
