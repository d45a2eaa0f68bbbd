package rng

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"vortex/internal/mat"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child and parent must not produce the same stream.
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			t.Fatalf("parent and child emitted identical value at step %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	counts := make([]int, 7)
	const n = 70000
	for i := 0; i < n; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-1.0/7) > 0.01 {
			t.Fatalf("bucket %d has frequency %v, want ~%v", i, frac, 1.0/7)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	s := New(6)
	const n = 400000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

// TestSkipShuffleKeepsShuffle: for every n, from five seeds, a source
// advanced by SkipShuffle(n) is in the state of one advanced by
// Shuffle(n, swap), several shuffles in a row, and both go on to yield
// the same stream.
func TestSkipShuffleKeepsShuffle(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 42, 1 << 40} {
		for _, n := range []int{0, 1, 2, 49, 4000} {
			shuffled, skipped := New(seed), New(seed)
			for k := 0; k < 3; k++ {
				shuffled.Shuffle(n, func(i, j int) {})
				skipped.SkipShuffle(n)
				if *shuffled != *skipped {
					t.Fatalf("seed %d n %d: states differ after shuffle %d", seed, n, k)
				}
			}
			if a, b := shuffled.Uint64(), skipped.Uint64(); a != b {
				t.Fatalf("seed %d n %d: next draw %#x after SkipShuffle, %#x after Shuffle", seed, n, b, a)
			}
		}
	}
}

// TestPixelNoiseMatchesPerCall: over 10⁵ pixels from five seeds, in
// stretches of random length that skip some pixels and apply the noise
// to others, with the Gaussian and the flip draws each on or off,
// PixelDraws leaves the source in the state the per-call Norm, Uint64,
// polar and Bernoulli sequence leaves after every stretch. It
// records that sequence's polar pairs bit for bit (and leaves u and q
// alone when std is 0) and its flip outcomes, and mat.PixelNoise over
// the record gives every pixel the per-call Normal, Bernoulli and clamp
// value bit for bit.
func TestPixelNoiseMatchesPerCall(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 42, 1 << 40} {
		walk, calls := New(seed), New(seed)
		lens := New(seed + 1000)
		for pixels, stretch := 0, 0; pixels < 100000; stretch++ {
			std := []float64{0, 0.07, 0.3}[lens.Intn(3)]
			flip := []float64{0, 0.002, 0.5}[lens.Intn(3)]
			skip := lens.Intn(60)
			n := lens.Intn(40)
			px, u, q, flipped := make([]float64, n), make([]float64, n), make([]float64, n), make([]bool, n)
			for i := range px {
				px[i] = []float64{0, 1, lens.Float64(), 2*lens.Float64() - 0.5}[lens.Intn(4)]
				u[i], q[i] = 7, 7
			}
			want := append([]float64(nil), px...)
			walk.PixelDraws(u, q, flipped, skip, std, flip)
			name := fmt.Sprintf("seed %d stretch %d (skip %d, %d px, std %v, flip %v)", seed, stretch, skip, n, std, flip)
			for i := range flipped {
				if std == 0 && (u[i] != 7 || q[i] != 7) {
					t.Fatalf("%s pixel %d: pair (%v, %v) written without noise", name, i, u[i], q[i])
				}
			}
			mat.PixelNoise(px, u, q, flipped, std)
			for k := 0; k < skip; k++ {
				if std > 0 {
					calls.Norm()
				}
				if flip > 0 {
					calls.Uint64()
				}
			}
			for i, v := range want {
				if std > 0 {
					before := *calls
					if pu, pq := before.polar(); math.Float64bits(pu) != math.Float64bits(u[i]) || math.Float64bits(pq) != math.Float64bits(q[i]) {
						t.Fatalf("%s pixel %d: pair (%v, %v), per-call (%v, %v)", name, i, u[i], q[i], pu, pq)
					}
					v += calls.Normal(0, std)
				}
				f := flip > 0 && calls.Bernoulli(flip)
				if flipped[i] != f {
					t.Fatalf("%s pixel %d: flipped %v, per-call %v", name, i, flipped[i], f)
				}
				if f {
					v = 1 - v
				}
				if v < 0 {
					v = 0
				} else if v > 1 {
					v = 1
				}
				want[i] = v
			}
			if walk.s != calls.s {
				t.Fatalf("%s: states differ", name)
			}
			for i := range px {
				if math.Float64bits(px[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s pixel %d: %v, per-call %v", name, i, px[i], want[i])
				}
			}
			pixels += skip + n
		}
	}
}

// TestNormPinned pins Norm's first samples from seed 1, so a change to
// the sampler that moves its values fails here and not only in the
// experiments' golden digests.
func TestNormPinned(t *testing.T) {
	s := New(1)
	for i, want := range normPins {
		if got := s.Norm(); math.Float64bits(got) != want {
			t.Fatalf("sample %d: %v (%#x), want %v (%#x)", i, got, math.Float64bits(got), math.Float64frombits(want), want)
		}
	}
}

// normPins are the bits of Norm's first six samples from New(1).
var normPins = []uint64{
	0x3ffe267c87ac62eb, 0x3ff4d55c9633557c, 0x3fdc0d732ae4b3dd,
	0xbfe5088df52fd8fd, 0x3ff153c160bd1468, 0x3fe0252c47c3a351,
}

func TestLogNormalMoments(t *testing.T) {
	// For X ~ LogNormal(0, sigma^2): E[X] = exp(sigma^2/2).
	s := New(8)
	sigma := 0.5
	const n = 400000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.LogNormal(0, sigma)
	}
	mean := sum / n
	want := math.Exp(sigma * sigma / 2)
	if math.Abs(mean-want)/want > 0.02 {
		t.Fatalf("lognormal mean = %v, want ~%v", mean, want)
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64) bool {
		n := 1 + int(seed%57)
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	s := New(11)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", frac)
	}
}

func TestNormVec(t *testing.T) {
	s := New(12)
	v := s.NormVec(nil, 1000, 2.0)
	if len(v) != 1000 {
		t.Fatalf("len = %d", len(v))
	}
	var sumsq float64
	for _, x := range v {
		sumsq += x * x
	}
	sd := math.Sqrt(sumsq / 1000)
	if math.Abs(sd-2.0) > 0.2 {
		t.Fatalf("stddev = %v, want ~2", sd)
	}
	// Reuse path.
	w := make([]float64, 10)
	got := s.NormVec(w, 10, 1.0)
	if &got[0] != &w[0] {
		t.Fatal("NormVec did not reuse provided buffer")
	}
}

// TestIntnPinned pins Intn's draws from seed 1 over bounds from 1 to
// past 2⁶², where the rejection loop runs about one draw in four, so a
// change to the multiply-shift that moves a draw, a shuffle or a
// sample order fails here and not only in the experiments' digests.
func TestIntnPinned(t *testing.T) {
	s := New(1)
	ns := []int{1, 2, 3, 7, 10, 1000, 4000, 1 << 40, 3<<61 + 5}
	want := []int{0, 1, 1, 2, 6, 143, 284, 419116731463, 5998552484777884624,
		0, 1, 2, 6, 6, 599, 3562, 88462246178, 441161017705094177,
		0, 0, 1, 2, 4, 211, 1549, 939457104478, 5196054157879742225}
	for i, w := range want {
		if got := s.Intn(ns[i%len(ns)]); got != w {
			t.Fatalf("draw %d: Intn(%d) = %d, pinned %d", i, ns[i%len(ns)], got, w)
		}
	}
	if got := s.Uint64(); got != 0xfb747617a7e9a1af {
		t.Fatalf("next draw %#x, pinned 0xfb747617a7e9a1af", got)
	}
}

// BenchmarkShuffle times one Fisher-Yates shuffle of a Full train set's
// 4,000 positions.
func BenchmarkShuffle(b *testing.B) {
	s := New(1)
	p := make([]int, 4000)
	for i := 0; i < b.N; i++ {
		s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Norm()
	}
}
