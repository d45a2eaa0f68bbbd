// Package dataset generates the synthetic digit-classification benchmark
// that stands in for MNIST in this offline reproduction (the substitution
// is documented in DESIGN.md). Each sample is a stroke-rendered digit
// glyph on an NxN grid with a random affine distortion (translation,
// scale, rotation, shear), stroke-width variation, additive Gaussian
// pixel noise and salt-and-pepper flips. The noise levels are tuned so a
// linear 1-vs-all classifier tops out near the ~85% band the paper
// reports as the model-limited maximum for its network on MNIST.
//
// The package also provides the under-sampling used by the paper's
// Table 1 (28x28 -> 14x14 -> 7x7), Digits, which renders the protocols'
// train and test sets straight at the reduced resolution, and
// deterministic train/validation/test splitting.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"vortex/internal/mat"
	"vortex/internal/rng"
)

// NumClasses is the number of digit classes.
const NumClasses = 10

// Sample is one labeled image with pixels in [0, 1], row-major.
type Sample struct {
	Pixels []float64
	Label  int
}

// Set is a labeled dataset of uniform-size images.
type Set struct {
	Size    int // images are Size x Size
	Samples []Sample
}

// Features returns the dimensionality of each sample: Size*Size for
// image sets, or the first sample's length for non-image sets (pattern
// workloads carry Size 0).
func (s *Set) Features() int {
	if s.Size > 0 {
		return s.Size * s.Size
	}
	if len(s.Samples) > 0 {
		return len(s.Samples[0].Pixels)
	}
	return 0
}

// Len returns the number of samples.
func (s *Set) Len() int { return len(s.Samples) }

// Config controls the generator. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	Size        int     // image side length
	StrokeWidth float64 // nominal stroke half-width in pixels
	StrokeJit   float64 // stroke width jitter fraction
	Shift       float64 // max translation in pixels
	ScaleJit    float64 // max relative scale change
	Rotate      float64 // max rotation [rad]
	Shear       float64 // max shear coefficient
	PointJit    float64 // per-control-point jitter in glyph units (handwriting variability)
	NoiseStd    float64 // additive Gaussian pixel noise
	FlipProb    float64 // salt-and-pepper flip probability per pixel
}

// DefaultConfig returns the generator settings used by the experiments:
// 28x28 images with distortion levels tuned for MNIST-like linear
// separability.
func DefaultConfig() Config {
	return Config{
		Size:        28,
		StrokeWidth: 1.3,
		StrokeJit:   0.35,
		Shift:       2.4,
		ScaleJit:    0.18,
		Rotate:      0.25,
		Shear:       0.20,
		PointJit:    0.05,
		NoiseStd:    0.07,
		FlipProb:    0.002,
	}
}

// Validate checks generator parameters.
func (c Config) Validate() error {
	if c.Size < 4 {
		return errors.New("dataset: size must be at least 4")
	}
	if c.StrokeWidth <= 0 {
		return errors.New("dataset: stroke width must be positive")
	}
	if c.NoiseStd < 0 || c.FlipProb < 0 || c.FlipProb > 1 {
		return errors.New("dataset: invalid noise parameters")
	}
	return nil
}

// Generate produces n samples with labels drawn uniformly, deterministic
// in src.
func Generate(cfg Config, n int, src *rng.Source) (*Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, errors.New("dataset: negative sample count")
	}
	if src == nil {
		return nil, errors.New("dataset: nil rng source")
	}
	set := &Set{Size: cfg.Size, Samples: make([]Sample, n)}
	var draws noiseDraws
	for i := range set.Samples {
		label := src.Intn(NumClasses)
		set.Samples[i] = Sample{Pixels: renderDigit(cfg, label, 1, src, &draws), Label: label}
	}
	return set, nil
}

// GenerateBalanced produces exactly perClass samples of every class, in
// shuffled order.
func GenerateBalanced(cfg Config, perClass int, src *rng.Source) (*Set, error) {
	return generateBalanced(cfg, perClass, 1, src)
}

// generateBalanced is GenerateBalanced rendered straight at resolution
// cfg.Size/factor. Its set is, bit for bit,
// Undersample(GenerateBalanced(cfg, perClass, src), factor, Decimate),
// and src ends where that full render leaves it. At factor 1 the
// second half of the samples renders on a second goroutine, which it
// waits for.
func generateBalanced(cfg Config, perClass, factor int, src *rng.Source) (*Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkFactor(cfg.Size, factor); err != nil {
		return nil, err
	}
	if perClass < 0 {
		return nil, errors.New("dataset: negative per-class count")
	}
	if src == nil {
		return nil, errors.New("dataset: nil rng source")
	}
	set := &Set{Size: cfg.Size / factor, Samples: make([]Sample, perClass*NumClasses)}
	render := func(samples []Sample, first int, from *rng.Source) {
		var draws noiseDraws
		for i := range samples {
			label := (first + i) / perClass
			samples[i] = Sample{Pixels: renderDigit(cfg, label, factor, from, &draws), Label: label}
		}
	}
	if half := len(set.Samples) / 2; factor == 1 && half > 0 {
		// The second half renders on a second goroutine from a copy of
		// src advanced past the first half, which costs a fraction of
		// rendering it when every pixel is kept. At other factors a skip
		// costs about as much as the render it replaces.
		second := *src
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < half; i++ {
				skipDigit(cfg, i/perClass, &second)
			}
			render(set.Samples[half:], half, &second)
		}()
		render(set.Samples[:half], 0, src)
		<-done
		*src = second
	} else {
		render(set.Samples, 0, src)
	}
	src.Shuffle(len(set.Samples), func(i, j int) {
		set.Samples[i], set.Samples[j] = set.Samples[j], set.Samples[i]
	})
	return set, nil
}

// noiseDraws is one goroutine's record of a digit's pixel noise draws,
// from rng.(*Source).PixelDraws to mat.PixelNoise: each kept pixel's
// polar pair (u, q) and whether its flip fired. It is reused from digit
// to digit.
type noiseDraws struct {
	u, q    []float64
	flipped []bool
}

// grow makes room for n pixels' draws.
func (d *noiseDraws) grow(n int) {
	if len(d.flipped) < n {
		d.u, d.q, d.flipped = make([]float64, n), make([]float64, n), make([]bool, n)
	}
}

// renderDigit rasterizes one distorted glyph and returns the pixels
// Decimate by factor keeps of it: the centre tap of every factor x factor
// block of the cfg.Size x cfg.Size image, which factor must divide. It
// computes only those pixels, each from the same expression and the same
// draws as the full render, and it draws from src exactly what the full
// render draws, so factor 1 is the full render and any other factor is
// its decimation, bit for bit. draws holds the noise draws between the
// draw pass and the noise kernel.
func renderDigit(cfg Config, label, factor int, src *rng.Source, draws *noiseDraws) []float64 {
	n := cfg.Size
	ns := n / factor
	px := make([]float64, ns*ns)
	// Random affine transform about the glyph center (0.5, 0.5).
	scale := 1 + (2*src.Float64()-1)*cfg.ScaleJit
	rot := (2*src.Float64() - 1) * cfg.Rotate
	shear := (2*src.Float64() - 1) * cfg.Shear
	dx := (2*src.Float64() - 1) * cfg.Shift
	dy := (2*src.Float64() - 1) * cfg.Shift
	cosr, sinr := math.Cos(rot), math.Sin(rot)
	fs := float64(n)
	transform := func(p point) (float64, float64) {
		// Jitter the control point (handwriting variability), then
		// center, shear, rotate, scale, uncenter, then to pixel coords.
		x := p.x - 0.5
		y := p.y - 0.5
		if cfg.PointJit > 0 {
			x += (2*src.Float64() - 1) * cfg.PointJit
			y += (2*src.Float64() - 1) * cfg.PointJit
		}
		x += shear * y
		xr := cosr*x - sinr*y
		yr := sinr*x + cosr*y
		xr *= scale
		yr *= scale
		return (xr+0.5)*fs + dx, (yr+0.5)*fs + dy
	}
	width := cfg.StrokeWidth * (1 + (2*src.Float64()-1)*cfg.StrokeJit) * fs / 28
	if width < 0.4 {
		width = 0.4
	}
	soft := width * 0.9
	for _, pl := range glyphs[label] {
		// Transform every point once so shared endpoints receive the same
		// jitter and consecutive strokes stay connected.
		xs := make([]float64, len(pl))
		ys := make([]float64, len(pl))
		for k, p := range pl {
			xs[k], ys[k] = transform(p)
		}
		for s := 0; s+1 < len(pl); s++ {
			strokeSegment(px, n, factor, xs[s], ys[s], xs[s+1], ys[s+1], width, soft)
		}
	}
	// Pixel noise, drawn for every pixel of the full image in row-major
	// order, then applied to the kept pixels in one kernel call. A
	// dropped pixel only advances src past its draws. Each kept row and
	// column has pre dropped ones before it and post after it.
	std, flip := cfg.NoiseStd, cfg.FlipProb
	draws.grow(len(px))
	u, q, flipped := draws.u[:len(px)], draws.q[:len(px)], draws.flipped[:len(px)]
	if factor == 1 {
		src.PixelDraws(u, q, flipped, 0, std, flip)
	} else {
		pre, post := factor/2, factor-factor/2-1
		skip := 0 // dropped pixels since the last kept one
		for ky := 0; ky < ns; ky++ {
			skip += pre * n
			for kx := ky * ns; kx < (ky+1)*ns; kx++ {
				src.PixelDraws(u[kx:kx+1], q[kx:kx+1], flipped[kx:kx+1], skip+pre, std, flip)
				skip = post
			}
			skip += post * n
		}
		src.PixelDraws(nil, nil, nil, skip, std, flip)
	}
	mat.PixelNoise(px, u, q, flipped, std)
	return px
}

// skipDigit advances src past the draws of one renderDigit(cfg, label,
// factor, src, draws) call, at any factor, without rendering: the
// transform's five uniforms and the stroke width's, two per control
// point when cfg.PointJit > 0, then every pixel's noise draws.
func skipDigit(cfg Config, label int, src *rng.Source) {
	draws := 6
	if cfg.PointJit > 0 {
		for _, pl := range glyphs[label] {
			draws += 2 * len(pl)
		}
	}
	for ; draws > 0; draws-- {
		src.Uint64()
	}
	src.PixelDraws(nil, nil, nil, cfg.Size*cfg.Size, cfg.NoiseStd, cfg.FlipProb)
}

// strokeSegment adds the soft coverage of one thick segment into px, the
// pixels Decimate by factor keeps of an n x n image: the centres of full
// rows and columns factor/2 + k·factor. Each kept row inside the
// segment's bounding box is one mat.StrokeRow call.
func strokeSegment(px []float64, n, factor int, x1, y1, x2, y2, width, soft float64) {
	minX := int(math.Floor(math.Min(x1, x2) - width - soft - 1))
	maxX := int(math.Ceil(math.Max(x1, x2) + width + soft + 1))
	minY := int(math.Floor(math.Min(y1, y2) - width - soft - 1))
	maxY := int(math.Ceil(math.Max(y1, y2) + width + soft + 1))
	if maxX > n-1 {
		maxX = n - 1
	}
	if maxY > n-1 {
		maxY = n - 1
	}
	// The first kept row and column at or past minY and minX.
	off := factor / 2
	ky0, kx0 := 0, 0
	if minY > off {
		ky0 = (minY - off + factor - 1) / factor
	}
	if minX > off {
		kx0 = (minX - off + factor - 1) / factor
	}
	x0 := off + kx0*factor
	if x0 > maxX {
		return
	}
	cols := (maxX-x0)/factor + 1
	ns := n / factor
	seg := mat.Stroke{X1: x1, Y1: y1, DX: x2 - x1, DY: y2 - y1, Width: width, Soft: soft, Far: farSq(width, soft)}
	seg.LenSq = seg.DX*seg.DX + seg.DY*seg.DY
	// yi walks the kept full-resolution rows, i0 the index in px of
	// each row's first kept pixel.
	for yi, i0 := off+ky0*factor, ky0*ns+kx0; yi <= maxY; yi, i0 = yi+factor, i0+ns {
		mat.StrokeRow(px[i0:i0+cols], seg, x0, factor, float64(yi)+0.5)
	}
}

// farSq is the squared distance from a segment beyond which
// strokeSegment's coverage is <= 0, the Stroke.Far that lets the
// generic mat.StrokeRow skip a pixel without the Hypot. Such a pixel's
// true distance exceeds (width+soft)(1+4e-7), while the rounding in the
// squares, their sum, farSq itself, Hypot, dist-width and the division
// comes to a few units in the last place, nine orders of magnitude
// below that margin, so its coverage would be negative. Every pixel
// past the test gets the coverage the Hypot gives it.
func farSq(width, soft float64) float64 {
	return (width + soft) * (width + soft) * (1 + 1e-6)
}

// PoolMethod selects how Undersample reduces resolution.
type PoolMethod int

const (
	// Decimate keeps the center tap of every factor x factor block — the
	// behaviour of re-sampling the benchmark image at a lower resolution,
	// and the method the Table 1 experiments use (thin strokes can fall
	// between taps, producing the paper's sharp feature loss at 7x7).
	Decimate PoolMethod = iota
	// AveragePool replaces each block with its mean (a gentler,
	// mass-preserving reduction).
	AveragePool
)

// Undersample reduces every image by an integer factor, e.g.
// 28 -> 14 (factor 2) or 28 -> 7 (factor 4), mirroring the paper's
// Table 1 resolutions. The factor must divide the image size.
func Undersample(s *Set, factor int, method PoolMethod) (*Set, error) {
	if err := checkFactor(s.Size, factor); err != nil {
		return nil, err
	}
	if factor == 1 {
		return s, nil
	}
	out := &Set{Size: s.Size / factor, Samples: make([]Sample, len(s.Samples))}
	ns := out.Size
	area := float64(factor * factor)
	for k, sample := range s.Samples {
		pooled := make([]float64, ns*ns)
		for y := 0; y < ns; y++ {
			for x := 0; x < ns; x++ {
				switch method {
				case AveragePool:
					sum := 0.0
					for dy := 0; dy < factor; dy++ {
						row := (y*factor + dy) * s.Size
						for dx := 0; dx < factor; dx++ {
							sum += sample.Pixels[row+x*factor+dx]
						}
					}
					pooled[y*ns+x] = sum / area
				default: // Decimate
					pooled[y*ns+x] = sample.Pixels[(y*factor+factor/2)*s.Size+x*factor+factor/2]
				}
			}
		}
		out.Samples[k] = Sample{Pixels: pooled, Label: sample.Label}
	}
	return out, nil
}

// checkFactor reports whether factor is a valid under-sampling factor
// for size x size images: at least 1 and a divisor of size.
func checkFactor(size, factor int) error {
	if factor < 1 {
		return errors.New("dataset: pooling factor must be >= 1")
	}
	if size%factor != 0 {
		return fmt.Errorf("dataset: factor %d does not divide size %d", factor, size)
	}
	return nil
}

// Digits returns the balanced train and test digit sets of the paper's
// protocol: perClassTrain samples of each class rendered from
// rng.New(seed), perClassTest from rng.New(seed+1), both with
// DefaultConfig and undersampled by factor with Decimate. Each image is
// rendered straight at the reduced resolution: only the pixels Decimate
// keeps are computed, and the source still makes every draw of the full
// render, so the sets are bit for bit those of GenerateBalanced followed
// by Undersample. The two streams are independent, so the sets render on
// two goroutines; the result is the same as rendering them one after
// the other.
func Digits(perClassTrain, perClassTest, factor int, seed uint64) (train, test *Set, err error) {
	var testErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		test, testErr = generateBalanced(DefaultConfig(), perClassTest, factor, rng.New(seed+1))
	}()
	train, err = generateBalanced(DefaultConfig(), perClassTrain, factor, rng.New(seed))
	<-done
	if err != nil {
		return nil, nil, err
	}
	if testErr != nil {
		return nil, nil, testErr
	}
	return train, test, nil
}

// Split partitions the set into two disjoint subsets of sizes n and
// Len()-n, preserving order (generate with a shuffled/balanced generator
// for random splits).
func (s *Set) Split(n int) (*Set, *Set, error) {
	if n < 0 || n > len(s.Samples) {
		return nil, nil, errors.New("dataset: split size out of range")
	}
	a := &Set{Size: s.Size, Samples: s.Samples[:n]}
	b := &Set{Size: s.Size, Samples: s.Samples[n:]}
	return a, b, nil
}

// ToMatrix converts the set into a design matrix (samples as rows) and a
// label slice, the form the software optimizers consume.
func (s *Set) ToMatrix() (*mat.Matrix, []int) {
	x := mat.NewMatrix(s.Len(), s.Features())
	labels := make([]int, s.Len())
	for i, sample := range s.Samples {
		copy(x.Row(i), sample.Pixels)
		labels[i] = sample.Label
	}
	return x, labels
}

// MeanInput returns the per-pixel mean over the set — the workload
// statistic AMP's sensitivity analysis uses (paper Eq. 11 averaged over
// the inputs).
func (s *Set) MeanInput() []float64 {
	if s.Len() == 0 {
		return nil
	}
	mean := make([]float64, s.Features())
	for _, sample := range s.Samples {
		for i, p := range sample.Pixels {
			mean[i] += p
		}
	}
	inv := 1 / float64(s.Len())
	for i := range mean {
		mean[i] *= inv
	}
	return mean
}

// Targets returns the 1-vs-all target for a label and output class:
// +1 if the sample belongs to the class, -1 otherwise (paper Eq. 3).
func Targets(label, class int) float64 {
	if label == class {
		return 1
	}
	return -1
}

// ASCII renders a sample as text art for the CLI tools and debugging.
func (s Sample) ASCII(size int) string {
	const ramp = " .:-=+*#%@"
	var b strings.Builder
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			v := s.Pixels[y*size+x]
			idx := int(v * float64(len(ramp)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			b.WriteByte(ramp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
