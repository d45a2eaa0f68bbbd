// Package rng provides a deterministic, splittable pseudo-random number
// generator and the distribution samplers used throughout the Vortex
// simulator.
//
// Reproducibility is a hard requirement for the Monte-Carlo experiments in
// this repository: the same seed must produce the same crossbar variation
// map, the same dataset, and the same training trajectory on every run and
// on every platform. We therefore avoid math/rand's global state and
// implement xoshiro256** (Blackman & Vigna) directly; it is small, fast,
// and has well-understood statistical quality.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256** generator. The zero value is not
// a valid generator; use New or NewFromState.
type Source struct {
	s [4]uint64
}

// splitMix64 is used to seed the xoshiro state from a single word, as
// recommended by the xoshiro authors.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given seed. Distinct seeds yield
// statistically independent streams.
func New(seed uint64) *Source {
	var sm = seed
	var s Source
	for i := range s.s {
		s.s[i] = splitMix64(&sm)
	}
	// Guard against the (astronomically unlikely) all-zero state.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
	return &s
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// state is a Source's four words held as a value, so that a loop that
// draws many numbers keeps them in registers rather than in memory.
type state struct{ a, b, c, d uint64 }

// next is Uint64 on a state value: it returns the output and the
// advanced state.
func (x state) next() (uint64, state) {
	result := rotl(x.b*5, 7) * 9
	t := x.b << 17
	x.c ^= x.a
	x.d ^= x.b
	x.b ^= x.c
	x.a ^= x.d
	x.c ^= t
	x.d = rotl(x.d, 45)
	return result, x
}

// Split returns a new Source whose stream is independent of the parent's
// future output. It consumes entropy from the parent, so the parent's
// subsequent stream also changes; this is the intended "fork" semantics
// used to hand independent generators to parallel Monte-Carlo workers.
func (s *Source) Split() *Source {
	var sm = s.Uint64()
	var child Source
	for i := range child.s {
		child.s[i] = splitMix64(&sm)
	}
	if child.s[0]|child.s[1]|child.s[2]|child.s[3] == 0 {
		child.s[0] = 0x9e3779b97f4a7c15
	}
	return &child
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	un := uint64(n)
	x := s.Uint64()
	hi, lo := bits.Mul64(x, un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			x = s.Uint64()
			hi, lo = bits.Mul64(x, un)
		}
	}
	return int(hi)
}

// Norm returns a standard normally distributed sample (mean 0, stddev 1)
// using the polar (Marsaglia) method.
func (s *Source) Norm() float64 {
	u, q := s.polar()
	return u * math.Sqrt(-2*math.Log(q)/q)
}

// polar is the rejection loop of the polar method: it draws points
// uniformly from the square [-1, 1)² until one falls strictly inside the
// unit circle, off the origin, and returns its first coordinate and its
// squared radius.
func (s *Source) polar() (u, q float64) {
	for {
		u = 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q = u*u + v*v
		if q > 0 && q < 1 {
			return u, q
		}
	}
}

// Normal returns a sample from N(mu, sigma^2).
func (s *Source) Normal(mu, sigma float64) float64 {
	return mu + sigma*s.Norm()
}

// LogNormal returns a sample exp(N(mu, sigma^2)). With mu = 0 this is the
// multiplicative device-variation factor e^theta used throughout the paper
// (reference [14] of the paper).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// PixelDraws makes the noise draws of a stretch of image pixels with
// the generator's state held in locals, written back once. Per pixel it
// draws one Normal sample's polar pair when std > 0, then one
// Bernoulli(flip) draw when flip > 0, exactly as Norm and Bernoulli
// would. It first advances past skip pixels' draws, then records the
// next len(flipped) pixels': pixel i's pair in u[i] and q[i], so that
// its normal sample is u[i]·√(−2·ln q[i] / q[i]) (u and q are not
// touched when std is 0), and whether its Bernoulli draw came out true
// in flipped[i] (false when flip is 0). The pairs satisfy 0 < q < 1.
func (s *Source) PixelDraws(u, q []float64, flipped []bool, skip int, std, flip float64) {
	x := state{s.s[0], s.s[1], s.s[2], s.s[3]}
	var r uint64
	uniform := func() float64 { // Float64
		r, x = x.next()
		return float64(r>>11) * (1.0 / (1 << 53))
	}
	polar := func() (u, q float64) { // the polar method's loop, as in Source.polar
		for {
			u = 2*uniform() - 1
			v := 2*uniform() - 1
			q = u*u + v*v
			if q > 0 && q < 1 {
				return u, q
			}
		}
	}
	for ; skip > 0; skip-- {
		if std > 0 {
			polar()
		}
		if flip > 0 {
			_, x = x.next()
		}
	}
	if std > 0 {
		u, q = u[:len(flipped)], q[:len(flipped)]
	}
	for i := range flipped {
		if std > 0 {
			u[i], q[i] = polar()
		}
		flipped[i] = flip > 0 && uniform() < flip
	}
	s.s = [4]uint64{x.a, x.b, x.c, x.d}
}

// Perm returns a uniformly random permutation of [0, n) as a slice.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided
// swap function (Fisher-Yates).
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// SkipShuffle advances the source past one Shuffle of n elements without
// permuting anything: it makes exactly Shuffle(n, swap)'s draws and
// leaves the source where Shuffle leaves it.
func (s *Source) SkipShuffle(n int) {
	for i := n - 1; i > 0; i-- {
		s.Intn(i + 1)
	}
}

// NormVec fills dst with independent N(0, sigma^2) samples and returns it.
// If dst is nil a new slice of length n is allocated.
func (s *Source) NormVec(dst []float64, n int, sigma float64) []float64 {
	if dst == nil {
		dst = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		dst[i] = sigma * s.Norm()
	}
	return dst
}
