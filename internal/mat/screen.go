package mat

import "math"

// ScreenMatrix is a matrix rounded to float32 for ScreenRow, which
// reads half the bytes of the float64 rows, with two error bounds per
// row: how far ScreenRow's sums over that row can fall from the exact
// chains ScoreRows8 computes.
type ScreenMatrix struct {
	Rows, Cols int
	Data       []float32 // row-major; element k is float32(x.Data[k])
	bound      []float32 // row i's dot bound at 2i, its square bound at 2i+1
}

// NewScreenMatrix rounds x to float32 in one pass over its rows and
// bounds, for every row, ScreenRow's error against any w and prev whose
// elements all lie in [-wmax, wmax] (see Bounds). A row holding NaN,
// ±Inf or a magnitude above math.MaxFloat32 gets infinite bounds, as
// does every row when wmax lies outside [2⁻⁶⁴, 2⁶⁴], so a caller that
// trusts a screened sum only within its bound takes the exact path
// there. It makes one allocation.
func NewScreenMatrix(x *Matrix, wmax float64) ScreenMatrix {
	n := x.Cols
	size := x.Rows * n
	buf := make([]float32, size+2*x.Rows)
	m := ScreenMatrix{Rows: x.Rows, Cols: n, Data: buf[:size:size], bound: buf[size:]}
	// The derived bounds (DESIGN §4.1) for a row of n features against
	// vectors bounded by W = wmax: for a dot, (2⁻²⁴ + 2.01γₙ)·W·‖x‖₁ +
	// n·(2⁻¹⁴⁹·W + 2⁻¹⁰⁷²); for a sum of squares, (2⁻²³ + 2⁻⁴⁷ +
	// 2.01γₙ₊₂)·W²·‖x‖₂² + 2⁻¹⁴⁸·W²·‖x‖₁ + n·(2⁻²⁹⁹·W² + 2⁻¹⁰⁷²).
	fn, w2 := float64(n), wmax*wmax
	d1, d0 := (0x1p-24+2.01*gamma(n))*wmax, fn*(0x1p-149*wmax+0x1p-1072)
	s2, s1, s0 := (0x1p-23+0x1p-47+2.01*gamma(n+2))*w2, 0x1p-148*w2, fn*(0x1p-299*w2+0x1p-1072)
	inRange := wmax >= 0x1p-64 && wmax <= 0x1p64
	for i := 0; i < x.Rows; i++ {
		row := x.Data[i*n : i*n+n]
		dst := m.Data[i*n : i*n+n][:len(row)]
		var l1, l2 float64
		finite := true
		for q, v := range row {
			dst[q] = float32(v)
			a := math.Abs(v)
			l1 += a
			l2 += a * a
			if !(a <= math.MaxFloat32) { // NaN fails too
				finite = false
			}
		}
		dot, sq := math.Inf(1), math.Inf(1)
		if finite && inRange {
			dot, sq = d1*l1+d0, s2*l2+s1*l1+s0
		}
		// Twice the derived bound, so that its own rounding (in l1, l2
		// and the scales) stays covered; rounded up to float32.
		m.bound[2*i], m.bound[2*i+1] = roundUp32(2*dot), roundUp32(2*sq)
	}
	return m
}

// Bounds returns row i's bounds. For every w and prev whose elements
// lie in [-wmax, wmax], ScreenRow's Dot and DotPrev lie within dot of
// Dot(x, w) and Dot(x, prev), and its Sq and SqPrev within sq of the
// sums of squares ScoreRows8 gives, x being row i of the matrix the
// ScreenMatrix was made from. Each is twice the bound DESIGN §4.1
// derives, rounded up to float32.
func (m *ScreenMatrix) Bounds(i int) (dot, sq float64) {
	return float64(m.bound[2*i]), float64(m.bound[2*i+1])
}

// gamma returns γₖ = k·u/(1 − k·u) for u = 2⁻⁵³, the relative error
// bound of a sum whose every term passes through at most k roundings.
func gamma(k int) float64 {
	ku := float64(k) * 0x1p-53
	return ku / (1 - ku)
}

// roundUp32 returns the least float32 at or above b.
func roundUp32(b float64) float32 {
	f := float32(b)
	if float64(f) < b {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// Screen holds ScreenRow's outputs for one row.
type Screen struct {
	Dot, DotPrev float64
	Sq, SqPrev   float64
}

// screenRowActive is the implementation ScreenRow dispatches to; chosen
// at init, overridden by SetKernelISA.
var screenRowActive = screenRowGeneric

// ScreenRow approximates ScoreRows8's four sums for row i of m: it sets
// out.Dot to about x·w and out.DotPrev to about x·prev and, when
// squares is set, out.Sq to about Σ(x∘w)² and out.SqPrev to about
// Σ(x∘prev)² (both 0 otherwise), x being the row in float32. Each lies
// within m.Bounds(i) of the exact chain while w and prev lie in the box
// m was made for. The sums run in any order, with several accumulators
// and fused multiply-adds, so they are not Dot's chains, and the
// results are fit only to pick a branch that the bound proves the exact
// value would pick too. Row next is the row the caller reads after this
// one, which the AVX-512 kernel prefetches. It panics unless len(w) ==
// len(prev) == m.Cols and both rows lie in m; it allocates nothing.
func ScreenRow(out *Screen, m *ScreenMatrix, i, next int, w, prev []float64, squares bool) {
	n := m.Cols
	if len(w) != n || len(prev) != n {
		panic("mat: ScreenRow length mismatch")
	}
	if uint(i) >= uint(m.Rows) || uint(next) >= uint(m.Rows) {
		panic("mat: ScreenRow row out of range")
	}
	screenRowActive(out, m.Data, i*n, next*n, w, prev, squares)
}

// screenRowGeneric is the portable ScreenRow, two accumulators per sum.
func screenRowGeneric(out *Screen, data []float32, off, _ int, w, prev []float64, squares bool) {
	x := data[off : off+len(w)]
	// Equal lengths let the compiler drop the loops' bounds checks.
	w, prev = w[:len(x)], prev[:len(x)]
	var d0, d1, p0, p1, s0, s1, q0, q1 float64
	h := len(x) / 2 // the two halves of the row, one per accumulator
	xa, wa, pa := x[:h], w[:h], prev[:h]
	xb, wb, pb := x[h:][:len(xa)], w[h:][:len(xa)], prev[h:][:len(xa)]
	if squares {
		for i := range xa {
			x0, x1 := float64(xa[i]), float64(xb[i])
			t0, t1 := x0*wa[i], x1*wb[i]
			u0, u1 := x0*pa[i], x1*pb[i]
			d0 += t0
			d1 += t1
			p0 += u0
			p1 += u1
			s0 += t0 * t0
			s1 += t1 * t1
			q0 += u0 * u0
			q1 += u1 * u1
		}
	} else {
		for i := range xa {
			x0, x1 := float64(xa[i]), float64(xb[i])
			d0 += x0 * wa[i]
			d1 += x1 * wb[i]
			p0 += x0 * pa[i]
			p1 += x1 * pb[i]
		}
	}
	if len(x)%2 != 0 { // the last feature
		xi := float64(x[len(x)-1])
		t, u := xi*w[len(x)-1], xi*prev[len(x)-1]
		d0 += t
		p0 += u
		s0 += t * t
		q0 += u * u
	}
	if !squares {
		s0, s1, q0, q1 = 0, 0, 0, 0
	}
	*out = Screen{Dot: d0 + d1, DotPrev: p0 + p1, Sq: s0 + s1, SqPrev: q0 + q1}
}

// stepRowActive is the implementation StepRow dispatches to; chosen at
// init, overridden by SetKernelISA.
var stepRowActive = stepRowGeneric

// StepRow takes one projected sub-gradient step of the hinge loss on w
// in place: for every q,
//
//	g := ny*x[q] + coef*x[q]*x[q]*w[q]
//	w[q] = w[q] - rate*g, clamped to [-wmax, wmax]
//
// with ny = -y, each operation rounded on its own in that order (no
// FMA), and the clamp leaving a NaN alone. Every implementation gives
// that loop's results bit for bit (a NaN's payload aside). It panics
// unless len(x) == len(w); it allocates nothing.
func StepRow(w, x []float64, ny, coef, rate, wmax float64) {
	if len(x) != len(w) {
		panic("mat: StepRow length mismatch")
	}
	stepRowActive(w, x, ny, coef, rate, wmax)
}

// stepRowGeneric is the portable StepRow, the loop its contract writes.
func stepRowGeneric(w, x []float64, ny, coef, rate, wmax float64) {
	x = x[:len(w)]
	for q, xq := range x {
		g := ny*xq + coef*xq*xq*w[q]
		wq := w[q] - rate*g
		if wq > wmax {
			wq = wmax
		} else if wq < -wmax {
			wq = -wmax
		}
		w[q] = wq
	}
}
