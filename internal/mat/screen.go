package mat

import (
	"math"
	"sync"
)

// ScreenMatrix is a matrix rounded to IEEE binary16 for ScreenRow,
// which reads a quarter of the bytes of the float64 rows, with two error
// bounds per row: how far ScreenRow's sums over that row can fall from
// the exact chains, Dot and the sum of squares ScoreRows8 computes.
type ScreenMatrix struct {
	Rows, Cols int
	data       []uint16 // row-major binary16 bits; element k is x.Data[k] rounded
	bound      []uint16 // row i's dot bound's float32 bits at 4i, its square bound's at 4i+2, low half first
}

// screenPad is how many binary16 elements the screen kernels may read
// past the end of a row (never using them). NewScreenMatrix's allocation
// holds the bounds and this many more after the last row.
const screenPad = 16

// NewScreenMatrix rounds x to binary16 in one pass over its rows, each
// element as binary16(float32(v)) with ties to even at both steps, and
// bounds, for every row, ScreenRow's error against any w and prev whose
// elements all lie in [-wmax, wmax] (see Bounds). The bounds come from
// the rounding errors the pass measures, not from a relative bound on
// them. A row holding NaN, ±Inf or a magnitude that rounds past 65504,
// the largest binary16, gets infinite bounds, as does every row when
// wmax lies outside [2⁻⁶⁴, 2⁶⁴], so a caller that trusts a screened sum
// only within its bound takes the exact path there. Every implementation
// gives the same bits and the same bounds. It makes one allocation.
func NewScreenMatrix(x *Matrix, wmax float64) ScreenMatrix {
	n := x.Cols
	size := x.Rows * n
	buf := make([]uint16, size+4*x.Rows+screenPad)
	m := ScreenMatrix{Rows: x.Rows, Cols: n, data: buf[:size], bound: buf[size : size+4*x.Rows]}
	// The derived bounds (DESIGN §4.1) for a row x of n features rounded
	// to x̂, with e = |x − x̂|, against vectors bounded by W = wmax: for a
	// dot, W·((1 + γₙ)·Σe + 2γₙ·‖x‖₁) + n·2⁻¹⁰⁷²; for a sum of squares,
	// W²·((1 + γₙ₊₂)·Σe·(|x| + |x̂|) + 2γₙ₊₂·‖x‖₂²) + n·2⁻¹⁰⁷²·(W² + 1).
	g, g2 := gamma(n), gamma(n+2)
	w2, fn := wmax*wmax, float64(n)
	d0, s0 := fn*0x1p-1072, fn*0x1p-1072*(w2+1)
	inRange := wmax >= 0x1p-64 && wmax <= 0x1p64
	var acc [4][16]float64
	for i := 0; i < x.Rows; i++ {
		halfRow(m.data[i*n:i*n+n], x.Data[i*n:i*n+n], &acc)
		e, ex, l1, l2 := sum16(&acc[0]), sum16(&acc[1]), sum16(&acc[2]), sum16(&acc[3])
		dot, sq := math.Inf(1), math.Inf(1)
		// Σe is NaN or infinite exactly when some x̂ is: a finite x̂
		// lies within 16 of its x.
		if e <= math.MaxFloat64 && inRange {
			dot = wmax*((1+g)*e+2*g*l1) + d0
			sq = w2*((1+g2)*ex+2*g2*l2) + s0
		}
		// Twice the derived bound, so that its own rounding (in the sums
		// and the scales) stays covered; rounded up to float32.
		putBound(m.bound[4*i:4*i+2], roundUp32(2*dot))
		putBound(m.bound[4*i+2:4*i+4], roundUp32(2*sq))
	}
	return m
}

// Row returns row i's binary16 bits, which alias the matrix.
func (m *ScreenMatrix) Row(i int) []uint16 {
	return m.data[i*m.Cols : i*m.Cols+m.Cols]
}

// Bounds returns row i's bounds. For every w and prev whose elements
// lie in [-wmax, wmax], ScreenRow's Dot and DotPrev lie within dot of
// Dot(x, w) and Dot(x, prev), and its Sq and SqPrev within sq of the
// sums of squares ScoreRows8 gives, x being row i of the matrix the
// ScreenMatrix was made from. Each is twice the bound DESIGN §4.1
// derives, rounded up to float32.
func (m *ScreenMatrix) Bounds(i int) (dot, sq float64) {
	b := m.bound[4*i : 4*i+4]
	return float64(math.Float32frombits(uint32(b[0]) | uint32(b[1])<<16)),
		float64(math.Float32frombits(uint32(b[2]) | uint32(b[3])<<16))
}

// putBound stores b's bits in dst[0] (low half) and dst[1].
func putBound(dst []uint16, b float32) {
	u := math.Float32bits(b)
	dst[0], dst[1] = uint16(u), uint16(u>>16)
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

// toHalf returns the binary16 bits nearest f, ties to even, as
// VCVTPS2PH $0 rounds: past 65504 by half an ulp or more is ±Inf, and a
// NaN keeps its sign and the top bits of its payload, made quiet.
func toHalf(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	b &= 0x7fffffff
	switch {
	case b > 0x7f800000: // NaN
		return sign | 0x7e00 | uint16(b>>13)&0x3ff
	case b >= 0x477ff000: // 65520 and up, +Inf included
		return sign | 0x7c00
	case b >= 0x38800000: // 2⁻¹⁴ and up: a normal binary16
		b -= 112 << 23 // rebias the exponent from 127 to 15
		b += 0xfff + (b>>13)&1
		return sign | uint16(b>>13)
	case b <= 0x33000000: // up to 2⁻²⁵, which ties to 0
		return sign
	default: // a multiple of 2⁻²⁴: a subnormal, or 2⁻¹⁴ rounded up
		return sign | uint16(math.RoundToEven(float64(math.Float32frombits(b))*0x1p24))
	}
}

// halfValue returns the value of the binary16 bits h, exactly.
func halfValue(h uint16) float64 {
	if h&0x7c00 == 0x7c00 { // ±Inf or NaN
		if h&0x3ff == 0 {
			return math.Inf(1 - 2*int(h>>15))
		}
		return math.NaN()
	}
	// h's exponent and fraction placed in a float64's low exponent and
	// top fraction bits, then scaled exactly by 2¹⁰⁰⁸, which also turns
	// a binary16 subnormal (a float64 subnormal here) into its value.
	return math.Float64frombits(uint64(h&0x8000)<<48|uint64(h&0x7fff)<<42) * 0x1p1008
}

// halfTable returns every binary16 value, exactly, as float32, indexed
// by its bits: the generic kernels' decode, built on first use. Over a
// Full row the generic screen's loop took about a tenth longer with it
// than on float32 rows, and about 1.8 times as long with halfValue's bit
// arithmetic inline.
var halfTable = sync.OnceValue(func() *[1 << 16]float32 {
	t := new([1 << 16]float32)
	for h := range t {
		t[h] = float32(halfValue(uint16(h)))
	}
	return t
})

// halfRowGeneric is the portable halfRow: it sets dst[q] to x[q]
// rounded to binary16 and adds, into lane q mod 16 of acc[0] to acc[3],
// e = |x[q] − x̂|, e·(|x[q]| + |x̂|), |x[q]| and x[q]², each operation
// rounded on its own, x̂ being dst[q]'s value. The AVX-512 kernel
// computes every lane as this loop does.
func halfRowGeneric(dst []uint16, x []float64, acc *[4][16]float64) {
	*acc = [4][16]float64{}
	tab := halfTable()
	dst = dst[:len(x)]
	for q, v := range x {
		h := toHalf(float32(v))
		dst[q] = h
		xh := float64(tab[h])
		ax, axh := math.Abs(v), math.Abs(xh)
		e := math.Abs(v - xh)
		l := q & 15
		acc[0][l] += e
		acc[1][l] += float64(e * (ax + axh))
		acc[2][l] += ax
		acc[3][l] += float64(ax * ax)
	}
}

// sum16 sums a's lanes: j and j+8, then j and j+4, then j and j+2, then
// the two left.
func sum16(a *[16]float64) float64 {
	var r [8]float64
	for j := range r {
		r[j] = a[j] + a[j+8]
	}
	for j := 0; j < 4; j++ {
		r[j] += r[j+4]
	}
	return (r[0] + r[2]) + (r[1] + r[3])
}

// Screen holds ScreenRow's outputs for one row.
type Screen struct {
	Dot, DotPrev float64
	Sq, SqPrev   float64
}

// screenRowActive is the implementation ScreenRow dispatches to; chosen
// at init, overridden by SetKernelISA.
var screenRowActive = screenRowGeneric

// ScreenRow approximates the exact chains of row i of m against w and
// prev: it sets out.Dot to about x·w and out.DotPrev to about x·prev
// and, when squares is set, out.Sq to about Σ(x∘w)² and out.SqPrev to
// about Σ(x∘prev)² (both 0 otherwise), x being the row in binary16,
// widened exactly. Each lies within m.Bounds(i) of the exact chain (Dot,
// or the sum of squares ScoreRows8 computes) while w and prev lie in
// the box m was made for. The sums run in any order, with
// several accumulators and fused multiply-adds, so they are not Dot's
// chains, and the results are fit only to pick a branch that the bound
// proves the exact value would pick too. Row next is the row the caller
// reads after this one, which the SIMD kernels prefetch. It panics
// unless len(w) == len(prev) == m.Cols and both rows lie in m; it
// allocates nothing.
func ScreenRow(out *Screen, m *ScreenMatrix, i, next int, w, prev []float64, squares bool) {
	n := m.Cols
	if len(w) != n || len(prev) != n {
		panic("mat: ScreenRow length mismatch")
	}
	if uint(i) >= uint(m.Rows) || uint(next) >= uint(m.Rows) {
		panic("mat: ScreenRow row out of range")
	}
	// The kernels read up to screenPad elements past the row, inside
	// the allocation NewScreenMatrix made.
	screenRowActive(out, m.data[:cap(m.data)], i*n, next*n, w, prev, squares)
}

// screenRowGeneric is the portable ScreenRow, two accumulators per sum,
// decoding through halfTable.
func screenRowGeneric(out *Screen, data []uint16, off, _ int, w, prev []float64, squares bool) {
	tab := halfTable()
	x := data[off : off+len(w)]
	// Equal lengths let the compiler drop the loops' bounds checks.
	w, prev = w[:len(x)], prev[:len(x)]
	var d0, d1, p0, p1, s0, s1, q0, q1 float64
	h := len(x) / 2 // the two halves of the row, one per accumulator
	xa, wa, pa := x[:h], w[:h], prev[:h]
	xb, wb, pb := x[h:][:len(xa)], w[h:][:len(xa)], prev[h:][:len(xa)]
	if squares {
		for i := range xa {
			x0, x1 := float64(tab[xa[i]]), float64(tab[xb[i]])
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
			x0, x1 := float64(tab[xa[i]]), float64(tab[xb[i]])
			d0 += x0 * wa[i]
			d1 += x1 * wb[i]
			p0 += x0 * pa[i]
			p1 += x1 * pb[i]
		}
	}
	if len(x)%2 != 0 { // the last feature
		xi := float64(tab[x[len(x)-1]])
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
