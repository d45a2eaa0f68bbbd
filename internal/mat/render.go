package mat

import "math"

// Digit-render kernels. The synthetic digit benchmark (internal/dataset)
// spends most of a 28x28 render in two per-pixel loops: the pixel noise
// and each stroke segment's soft coverage. Both are independent per
// pixel, so the AVX-512 versions compute eight pixels per step. Each
// lane runs the generic Go code's IEEE-754 operations in its order,
// with separate multiplies and adds (no FMA): the noise kernel ports
// math.Log's amd64 assembly and the coverage kernel math.Hypot's,
// operation for operation, so every ISA is bit-identical (DESIGN
// §12.2). SetKernelISA selects them with the read kernels.

// pixelNoiseActive and strokeRowActive are the implementations
// PixelNoise and StrokeRow dispatch to; chosen at init, overridden by
// SetKernelISA.
var (
	pixelNoiseActive = pixelNoiseGeneric
	strokeRowActive  = strokeRowGeneric
)

// PixelNoise applies a digit's drawn pixel noise to px, the arithmetic
// half of the render's noise (rng.(*Source).PixelDraws makes the
// draws). For every pixel it computes, exactly,
//
//	v := px[i]
//	if std > 0 { v += 0 + std*(u[i]*math.Sqrt(-2*math.Log(q[i])/q[i])) }
//	if flipped[i] { v = 1 - v }
//	if v < 0 { v = 0 } else if v > 1 { v = 1 }
//	px[i] = v
//
// that is Normal(0, std) from the polar pair (u[i], q[i]), then the
// salt-and-pepper flip, then the clamp to [0, 1]. Every q[i] must lie in
// (0, 1), as the polar method's squared radius does. flipped must be as
// long as px, and so must u and q when std > 0 (they are not read
// otherwise). It allocates nothing.
func PixelNoise(px, u, q []float64, flipped []bool, std float64) {
	if len(flipped) != len(px) || std > 0 && (len(u) != len(px) || len(q) != len(px)) {
		panic("mat: PixelNoise length mismatch")
	}
	pixelNoiseActive(px, u, q, flipped, std)
}

// pixelNoiseGeneric is the portable PixelNoise; the AVX-512 kernel must
// match it bit for bit. With noise it clamps through the min and max
// builtins, which compile to branch-free code where the if chain
// mispredicts on about half the background pixels. They give the if
// chain's result for every v but −0 (max(−0, 0) is +0, and the chain
// keeps −0), and v is never −0 there: 0 + x is never −0, so neither is
// a sum px[i] + (0 + x), nor 1 − v. Without noise v may be a caller's
// −0, so that loop keeps the if chain.
func pixelNoiseGeneric(px, u, q []float64, flipped []bool, std float64) {
	flipped = flipped[:len(px)]
	if std > 0 {
		u, q = u[:len(px)], q[:len(px)]
		for i, v := range px {
			v += 0 + std*(u[i]*math.Sqrt(-2*math.Log(q[i])/q[i]))
			if flipped[i] {
				v = 1 - v
			}
			px[i] = min(max(v, 0), 1)
		}
		return
	}
	for i, v := range px {
		if flipped[i] {
			v = 1 - v
		}
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		px[i] = v
	}
}

// Stroke is one thick segment of a digit glyph as StrokeRow covers it:
// from (X1, Y1) along (DX, DY), with LenSq = DX·DX + DY·DY, a solid
// half-width Width and a soft edge Soft wide. Far is a squared distance
// from the segment past which every pixel's coverage is ≤ 0; the
// generic kernel skips such pixels without the square root, and the
// AVX-512 kernel computes them and stores nothing.
type Stroke struct {
	X1, Y1, DX, DY, LenSq float64
	Width, Soft, Far      float64
}

// StrokeRow adds s's soft coverage into one row of pixels: px[k] is the
// pixel whose centre is (cx, cy) with cx = float64(x0+k·step) + 0.5.
// For every pixel it computes, in this order and exactly,
//
//	var t float64
//	if s.LenSq > 0 {
//		t = ((cx-s.X1)*s.DX + (cy-s.Y1)*s.DY) / s.LenSq
//		if t < 0 { t = 0 } else if t > 1 { t = 1 }
//	}
//	qx := s.X1 + t*s.DX
//	qy := s.Y1 + t*s.DY
//	ex, ey := cx-qx, cy-qy
//	cov := 1 - (math.Hypot(ex, ey)-s.Width)/s.Soft
//	if cov > 0 {
//		if cov > 1 { cov = 1 }
//		if cov > px[k] { px[k] = cov }
//	}
//
// so a pixel keeps the larger of its value and the segment's coverage.
// Columns must be integers of magnitude below 2⁵³ and the segment
// finite. It allocates nothing.
func StrokeRow(px []float64, s Stroke, x0, step int, cy float64) {
	strokeRowActive(px, s, x0, step, cy)
}

// strokeRowGeneric is the portable StrokeRow; the AVX-512 kernel must
// match it bit for bit.
func strokeRowGeneric(px []float64, s Stroke, x0, step int, cy float64) {
	x1, y1, dx, dy, lenSq := s.X1, s.Y1, s.DX, s.DY, s.LenSq
	width, soft, far := s.Width, s.Soft, s.Far
	for k, xi := 0, x0; k < len(px); k, xi = k+1, xi+step {
		cx := float64(xi) + 0.5
		var t float64
		if lenSq > 0 {
			t = ((cx-x1)*dx + (cy-y1)*dy) / lenSq
			if t < 0 {
				t = 0
			} else if t > 1 {
				t = 1
			}
		}
		qx := x1 + t*dx
		qy := y1 + t*dy
		ex, ey := cx-qx, cy-qy
		if ex*ex+ey*ey > far {
			continue // cov <= 0 below; see Stroke
		}
		cov := 1 - (math.Hypot(ex, ey)-width)/soft
		if cov <= 0 {
			continue
		}
		if cov > 1 {
			cov = 1
		}
		if cov > px[k] {
			px[k] = cov
		}
	}
}
