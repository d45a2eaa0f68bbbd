package mat_test

import (
	"fmt"
	"math"
	"testing"

	"vortex/internal/mat"
	"vortex/internal/rng"
)

// polarPair is the polar method's loop as rng's Norm runs it: a point
// uniform in [-1, 1)² strictly inside the unit circle, off the origin,
// as its first coordinate and squared radius.
func polarPair(src *rng.Source) (u, q float64) {
	for {
		u = 2*src.Float64() - 1
		v := 2*src.Float64() - 1
		q = u*u + v*v
		if q > 0 && q < 1 {
			return u, q
		}
	}
}

// noiseScalar is PixelNoise's per-pixel expression.
func noiseScalar(px, u, q []float64, flipped []bool, std float64) []float64 {
	out := make([]float64, len(px))
	for i, v := range px {
		if std > 0 {
			v += 0 + std*(u[i]*math.Sqrt(-2*math.Log(q[i])/q[i]))
		}
		if flipped[i] {
			v = 1 - v
		}
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		out[i] = v
	}
	return out
}

// renderISAs are the kernel implementations the render kernels have.
var renderISAs = []string{"generic", "avx512"}

// checkNoise fails t unless PixelNoise gives noiseScalar's pixels bit
// for bit on every implementation the machine supports.
func checkNoise(t testing.TB, name string, px, u, q []float64, flipped []bool, std float64) {
	t.Helper()
	defer mat.SetKernelISA("auto")
	want := noiseScalar(px, u, q, flipped, std)
	for _, isa := range renderISAs {
		if mat.SetKernelISA(isa) != isa {
			continue
		}
		got := append([]float64(nil), px...)
		mat.PixelNoise(got, u, q, flipped, std)
		for i := range got {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("%s %s std %v pixel %d of %d (px %v u %v q %v flipped %v): %v (%#x), scalar %v (%#x)",
					isa, name, std, i, len(px), px[i], u[i], q[i], flipped[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// specialQ are the squared radii where the logarithm's reduction
// changes course: (√2/2)·2⁻ᵏ, the f1 <= √2/2 test's boundary in every
// octave the polar loop reaches, and the values either side of it;
// powers of two and their neighbours; q just below 1; and 2⁻¹⁰⁴, the
// smallest q the loop can return (u = ±2⁻⁵², v = 0).
func specialQ() []float64 {
	var qs []float64
	for k := 0; k <= 104; k++ {
		h := math.Ldexp(math.Sqrt2/2, -k)
		p := math.Ldexp(1, -k)
		qs = append(qs, h, math.Nextafter(h, 0), math.Nextafter(h, 1), math.Nextafter(p, 0))
		if k > 0 {
			qs = append(qs, p, math.Nextafter(p, 1))
		}
	}
	return append(qs, 1-0x1p-53, 1-0x1p-52, 1-0x1p-40, 0x1p-104)
}

// TestPixelNoiseMatchesScalar: on every implementation the machine
// supports, PixelNoise is its scalar expression bit for bit, over 10⁶
// polar pairs in stretches of 1 to 17 and of 784 pixels, with std 0 and
// several positive values, flips on and off, and pixels inside and
// outside [0, 1], −0 among them. A second pass makes the logarithm
// show in full: std 1, no flip, pixel 0 and u a power of two chosen so
// that the pixel, u·√(−2·ln q / q), lands inside (0, 1) unrounded, over
// the same pairs and every special q.
func TestPixelNoiseMatchesScalar(t *testing.T) {
	src := rng.New(29)
	awkward := []float64{0, math.Copysign(0, -1), 1, 0.5, -0.25, 1.5, math.SmallestNonzeroFloat64}
	lens := []int{784}
	for n := 1; n <= 17; n++ {
		lens = append(lens, n)
	}
	var qs []float64
	for pairs, round := 0, 0; pairs < 1000000; round++ {
		n := lens[round%len(lens)]
		px, u, q, flipped := make([]float64, n), make([]float64, n), make([]float64, n), make([]bool, n)
		for i := range px {
			u[i], q[i] = polarPair(src)
			px[i] = src.Float64()
			if src.Intn(4) == 0 {
				px[i] = awkward[src.Intn(len(awkward))]
			}
			flipped[i] = src.Intn(3) == 0
		}
		std := []float64{0, 0.07, 0.3, 1, 1e-9}[round%5]
		checkNoise(t, fmt.Sprintf("round %d", round), px, u, q, flipped, std)
		for i := range flipped {
			flipped[i] = false
		}
		checkNoise(t, fmt.Sprintf("round %d unflipped", round), px, u, q, flipped, std)
		if round%16 == 0 {
			qs = append(qs, q...)
		}
		pairs += n
	}
	qs = append(qs, specialQ()...)
	// The logarithm in full: v = u·c with c = √(−2·ln q / q) and u the
	// power of two that puts v in [1/4, 1/2).
	px, u, flipped := make([]float64, len(qs)), make([]float64, len(qs)), make([]bool, len(qs))
	for i, q := range qs {
		_, e := math.Frexp(math.Sqrt(-2 * math.Log(q) / q))
		u[i] = math.Ldexp(1, -e-1)
	}
	checkNoise(t, "logarithm", px, u, qs, flipped, 1)
}

// strokeScalar is StrokeRow's per-pixel expression, with no squared
// distance test.
func strokeScalar(px []float64, s mat.Stroke, x0, step int, cy float64) []float64 {
	out := append([]float64(nil), px...)
	for k := range out {
		cx := float64(x0+k*step) + 0.5
		var t float64
		if s.LenSq > 0 {
			t = ((cx-s.X1)*s.DX + (cy-s.Y1)*s.DY) / s.LenSq
			if t < 0 {
				t = 0
			} else if t > 1 {
				t = 1
			}
		}
		qx := s.X1 + t*s.DX
		qy := s.Y1 + t*s.DY
		ex, ey := cx-qx, cy-qy
		cov := 1 - (math.Hypot(ex, ey)-s.Width)/s.Soft
		if cov > 0 {
			if cov > 1 {
				cov = 1
			}
			if cov > out[k] {
				out[k] = cov
			}
		}
	}
	return out
}

// newStroke is the segment the digit renderer draws from (x1, y1) to
// (x2, y2): soft edge 0.9·width, and Far its cut-off.
func newStroke(x1, y1, x2, y2, width float64) mat.Stroke {
	s := mat.Stroke{X1: x1, Y1: y1, DX: x2 - x1, DY: y2 - y1, Width: width, Soft: 0.9 * width}
	s.LenSq = s.DX*s.DX + s.DY*s.DY
	s.Far = (s.Width + s.Soft) * (s.Width + s.Soft) * (1 + 1e-6)
	return s
}

// checkStroke fails t unless StrokeRow gives strokeScalar's pixels bit
// for bit on every implementation the machine supports.
func checkStroke(t testing.TB, name string, px []float64, s mat.Stroke, x0, step int, cy float64) {
	t.Helper()
	defer mat.SetKernelISA("auto")
	want := strokeScalar(px, s, x0, step, cy)
	for _, isa := range renderISAs {
		if mat.SetKernelISA(isa) != isa {
			continue
		}
		got := append([]float64(nil), px...)
		mat.StrokeRow(got, s, x0, step, cy)
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%s %s %+v x0 %d step %d cy %v: pixel %d of %d is %v, scalar %v",
					isa, name, s, x0, step, cy, k, len(px), got[k], want[k])
			}
		}
	}
}

// TestStrokeRowMatchesScalar: on every implementation the machine
// supports, StrokeRow is its scalar expression bit for bit. Random
// segments, a fifth of them of zero length and a seventh from one pixel
// centre to another, cover every kept row of a
// 28x28 image at factors 1, 2, 4, 7, 14 and 28, from each segment's
// first kept column to the image's edge, over pixels already inked or
// not. Then a point segment sits at distances from a pixel centre
// within a few parts in 10⁷ of its cut-off, the pixels the generic
// kernel skips without the Hypot and the AVX-512 one computes.
func TestStrokeRowMatchesScalar(t *testing.T) {
	src := rng.New(31)
	for i := 0; i < 4000; i++ {
		x1, y1 := 34*src.Float64()-3, 34*src.Float64()-3
		x2, y2 := x1+12*src.Float64()-6, y1+12*src.Float64()-6
		if i%5 == 0 {
			x2, y2 = x1, y1
		}
		if i%7 == 0 {
			// Endpoints on pixel centres: a centre's distance is
			// exactly 0 there.
			x1, y1 = float64(src.Intn(28))+0.5, float64(src.Intn(28))+0.5
			x2, y2 = x1+float64(src.Intn(9)-4), y1+float64(src.Intn(9)-4)
		}
		s := newStroke(x1, y1, x2, y2, 0.4+2*src.Float64())
		factor := []int{1, 2, 4, 7, 14, 28}[i%6]
		ns := 28 / factor
		kx0 := src.Intn(ns)
		x0 := factor/2 + kx0*factor
		for ky := 0; ky < ns; ky++ {
			px := make([]float64, ns-kx0)
			for k := range px {
				if src.Intn(3) == 0 {
					px[k] = src.Float64()
				}
			}
			checkStroke(t, fmt.Sprintf("segment %d", i), px, s, x0, factor, float64(factor/2+ky*factor)+0.5)
		}
	}
	for i := 0; i < 20000; i++ {
		width := 0.4 + 2*src.Float64()
		r := (width + 0.9*width) * (1 + (2*src.Float64()-1)*3e-7)
		a := 2 * math.Pi * src.Float64()
		cx, cy := float64(src.Intn(28))+0.5, float64(src.Intn(28))+0.5
		s := newStroke(cx-r*math.Cos(a), cy-r*math.Sin(a), cx-r*math.Cos(a), cy-r*math.Sin(a), width)
		x0 := int(cx) - src.Intn(9)
		checkStroke(t, fmt.Sprintf("cut-off %d", i), make([]float64, 9+src.Intn(9)), s, x0, 1, cy)
	}
}

// FuzzPixelNoise checks PixelNoise against its scalar expression on
// every implementation, over stretch lengths, noise levels, flip
// patterns and pixels, with polar pairs drawn from the seed and one
// fuzzed squared radius in (0, 1).
func FuzzPixelNoise(f *testing.F) {
	f.Add(uint64(1), uint16(784), 0.07, uint64(0x10), 0.5, 0.25)
	f.Add(uint64(2), uint16(13), 0.0, uint64(0xffff), -0.0, 0x1p-104)
	f.Add(uint64(3), uint16(1), 1.0, uint64(1), 1.5, 1-0x1p-53)
	f.Add(uint64(4), uint16(17), 0.3, uint64(0xaaaa), math.NaN(), math.Sqrt2/2)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, std float64, flips uint64, pixel, q0 float64) {
		if !(std >= 0 && std < 1e3) || !(q0 > 0 && q0 < 1) {
			t.Skip()
		}
		src := rng.New(seed)
		m := int(n % 1024)
		px, u, q, flipped := make([]float64, m), make([]float64, m), make([]float64, m), make([]bool, m)
		for i := range px {
			u[i], q[i] = polarPair(src)
			px[i] = src.Float64()
			flipped[i] = flips>>(i%64)&1 != 0
		}
		if m > 0 {
			px[m/2], q[m-1] = pixel, q0
		}
		checkNoise(t, "fuzz", px, u, q, flipped, std)
	})
}

// FuzzStrokeRow checks StrokeRow against its scalar expression on
// every implementation, over segments, stroke widths, steps, first
// columns, rows and row lengths.
func FuzzStrokeRow(f *testing.F) {
	f.Add(3.2, 4.1, 8.7, 11.4, 1.3, uint8(1), uint8(0), uint8(5), uint8(28), 0.1)
	f.Add(10.0, 10.0, 10.0, 10.0, 0.4, uint8(2), uint8(1), uint8(10), uint8(14), 0.0)
	f.Add(-2.5, 30.0, 26.0, -1.0, 2.4, uint8(7), uint8(3), uint8(17), uint8(4), 0.9)
	f.Add(14.0, 0.0, 14.0, 28.0, 1.0, uint8(28), uint8(14), uint8(0), uint8(1), 0.5)
	f.Fuzz(func(t *testing.T, x1, y1, x2, y2, width float64, step, x0, row, n uint8, ink float64) {
		for _, v := range []float64{x1, y1, x2, y2} {
			if !(math.Abs(v) < 1e3) {
				t.Skip()
			}
		}
		if !(width >= 0.4 && width < 10) {
			t.Skip()
		}
		s := newStroke(x1, y1, x2, y2, width)
		px := make([]float64, n%40)
		for k := range px {
			if k%3 == 0 {
				px[k] = ink
			}
		}
		checkStroke(t, "fuzz", px, s, int(x0), 1+int(step%28), float64(row)+0.5)
	})
}
