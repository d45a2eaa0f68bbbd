package dataset

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"vortex/internal/mat"
	"vortex/internal/opt"
	"vortex/internal/rng"
)

func TestValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Size: 2, StrokeWidth: 1},
		{Size: 28, StrokeWidth: 0},
		{Size: 28, StrokeWidth: 1, NoiseStd: -1},
		{Size: 28, StrokeWidth: 1, FlipProb: 2},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestGenerateBasics(t *testing.T) {
	cfg := DefaultConfig()
	set, err := Generate(cfg, 50, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 50 || set.Size != 28 || set.Features() != 784 {
		t.Fatalf("set shape wrong: len=%d size=%d", set.Len(), set.Size)
	}
	for _, s := range set.Samples {
		if len(s.Pixels) != 784 {
			t.Fatal("pixel count wrong")
		}
		if s.Label < 0 || s.Label >= NumClasses {
			t.Fatal("label out of range")
		}
		for _, p := range s.Pixels {
			if p < 0 || p > 1 {
				t.Fatalf("pixel %v out of [0,1]", p)
			}
		}
	}
	if _, err := Generate(cfg, -1, rng.New(1)); err == nil {
		t.Fatal("expected error for negative count")
	}
	if _, err := Generate(cfg, 1, nil); err == nil {
		t.Fatal("expected error for nil source")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a, _ := Generate(cfg, 20, rng.New(7))
	b, _ := Generate(cfg, 20, rng.New(7))
	for i := range a.Samples {
		if a.Samples[i].Label != b.Samples[i].Label {
			t.Fatal("labels differ for same seed")
		}
		for j := range a.Samples[i].Pixels {
			if a.Samples[i].Pixels[j] != b.Samples[i].Pixels[j] {
				t.Fatal("pixels differ for same seed")
			}
		}
	}
}

func TestGenerateBalanced(t *testing.T) {
	set, err := GenerateBalanced(DefaultConfig(), 7, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, NumClasses)
	for _, s := range set.Samples {
		counts[s.Label]++
	}
	for c, n := range counts {
		if n != 7 {
			t.Fatalf("class %d has %d samples, want 7", c, n)
		}
	}
	// Shuffled: first ten samples should not be all the same class.
	same := true
	for i := 1; i < 10; i++ {
		if set.Samples[i].Label != set.Samples[0].Label {
			same = false
			break
		}
	}
	if same {
		t.Fatal("balanced set does not look shuffled")
	}
}

func TestDigitsHaveInk(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoiseStd = 0
	cfg.FlipProb = 0
	src := rng.New(5)
	for label := 0; label < NumClasses; label++ {
		px := renderDigit(cfg, label, 1, src, new(noiseDraws))
		sum := 0.0
		for _, p := range px {
			sum += p
		}
		if sum < 5 {
			t.Fatalf("digit %d has almost no ink (sum %v)", label, sum)
		}
		if sum > float64(len(px))/2 {
			t.Fatalf("digit %d floods the image (sum %v)", label, sum)
		}
	}
}

func TestDistinctClassesDiffer(t *testing.T) {
	// Clean renders of different digits must differ much more than two
	// renders of the same digit.
	cfg := DefaultConfig()
	cfg.NoiseStd = 0
	cfg.FlipProb = 0
	src := rng.New(9)
	mean := func(label int) []float64 {
		acc := make([]float64, cfg.Size*cfg.Size)
		const reps = 20
		for r := 0; r < reps; r++ {
			px := renderDigit(cfg, label, 1, src, new(noiseDraws))
			for i, p := range px {
				acc[i] += p / reps
			}
		}
		return acc
	}
	m1 := mean(1)
	m8 := mean(8)
	m1b := mean(1)
	interDist := mat.Norm2(mat.SubVec(m1, m8))
	intraDist := mat.Norm2(mat.SubVec(m1, m1b))
	if interDist < 2*intraDist {
		t.Fatalf("classes 1 and 8 not separated: inter %v vs intra %v", interDist, intraDist)
	}
}

func TestUndersample(t *testing.T) {
	set, _ := Generate(DefaultConfig(), 10, rng.New(11))
	half, err := Undersample(set, 2, Decimate)
	if err != nil {
		t.Fatal(err)
	}
	if half.Size != 14 || half.Features() != 196 {
		t.Fatalf("14x14 set wrong: size=%d", half.Size)
	}
	quarter, err := Undersample(set, 4, AveragePool)
	if err != nil {
		t.Fatal(err)
	}
	if quarter.Size != 7 || quarter.Features() != 49 {
		t.Fatalf("7x7 set wrong: size=%d", quarter.Size)
	}
	// Average pooling preserves total mass exactly.
	var sum28, sum7 float64
	for _, p := range set.Samples[0].Pixels {
		sum28 += p
	}
	for _, p := range quarter.Samples[0].Pixels {
		sum7 += p * 16
	}
	if math.Abs(sum28-sum7) > 1e-9 {
		t.Fatalf("pooling lost mass: %v vs %v", sum28, sum7)
	}
	// Decimation picks the block center tap exactly.
	dec, err := Undersample(set, 2, Decimate)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Samples[0].Pixels[0] != set.Samples[0].Pixels[1*28+1] {
		t.Fatal("decimation did not pick the center tap")
	}
	// Identity factor returns the set unchanged.
	same, err := Undersample(set, 1, Decimate)
	if err != nil || same != set {
		t.Fatal("factor 1 should return the identical set")
	}
	if _, err := Undersample(set, 3, Decimate); err == nil {
		t.Fatal("expected error for non-dividing factor")
	}
	if _, err := Undersample(set, 0, Decimate); err == nil {
		t.Fatal("expected error for zero factor")
	}
}

// sameSet fails t unless got holds want's samples, labels and pixels bit
// for bit.
func sameSet(t testing.TB, name string, got, want *Set) {
	t.Helper()
	if got.Size != want.Size || got.Len() != want.Len() {
		t.Fatalf("%s: %d samples of size %d, want %d of size %d", name, got.Len(), got.Size, want.Len(), want.Size)
	}
	for i, w := range want.Samples {
		g := got.Samples[i]
		if g.Label != w.Label || len(g.Pixels) != len(w.Pixels) {
			t.Fatalf("%s sample %d: label %d (%d px), want %d (%d px)", name, i, g.Label, len(g.Pixels), w.Label, len(w.Pixels))
		}
		for q, v := range w.Pixels {
			if math.Float64bits(g.Pixels[q]) != math.Float64bits(v) {
				t.Fatalf("%s sample %d pixel %d: %v, want %v", name, i, q, g.Pixels[q], v)
			}
		}
	}
}

// TestDigitsMatchesSequential: the sets Digits renders concurrently and
// straight at the reduced resolution are the ones sequential 28x28
// GenerateBalanced and Undersample calls give, sample for sample and bit
// for bit, at every factor that divides 28; a zero per-class count
// renders an empty set, and a factor that does not divide 28 is an
// error.
func TestDigitsMatchesSequential(t *testing.T) {
	sequential := func(perClass, factor int, seed uint64) *Set {
		s, err := GenerateBalanced(DefaultConfig(), perClass, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if s, err = Undersample(s, factor, Decimate); err != nil {
			t.Fatal(err)
		}
		return s
	}
	type digitsCase struct {
		train, test, factor int
		seed                uint64
	}
	cases := []digitsCase{{4, 3, 1, 5}, {6, 2, 4, 9}, {0, 3, 4, 9}}
	for seed := uint64(1); seed <= 5; seed++ {
		for _, factor := range []int{1, 2, 4, 7, 14, 28} {
			cases = append(cases, digitsCase{2, 1, factor, seed})
		}
	}
	for _, c := range cases {
		train, test, err := Digits(c.train, c.test, c.factor, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, fmt.Sprintf("factor %d seed %d train", c.factor, c.seed), train, sequential(c.train, c.factor, c.seed))
		sameSet(t, fmt.Sprintf("factor %d seed %d test", c.factor, c.seed), test, sequential(c.test, c.factor, c.seed+1))
	}
	for _, factor := range []int{3, 0} {
		if _, _, err := Digits(2, 2, factor, 1); err == nil {
			t.Fatalf("factor %d: expected an error", factor)
		}
	}
}

// TestDecimatedRenderMatchesFullRender: rendering one digit at factor f
// gives the pixels Decimate keeps of the full render, bit for bit, and
// leaves the source where the full render leaves it, with and without
// each kind of pixel noise.
func TestDecimatedRenderMatchesFullRender(t *testing.T) {
	for _, noise := range []struct{ std, flip float64 }{{0, 0}, {0.07, 0}, {0, 0.002}, {0.07, 0.002}, {0.07, 0.5}} {
		cfg := DefaultConfig()
		cfg.NoiseStd, cfg.FlipProb = noise.std, noise.flip
		for _, factor := range []int{2, 4, 7, 14, 28} {
			for seed := uint64(1); seed <= 5; seed++ {
				full, dec := rng.New(seed), rng.New(seed)
				for label := 0; label < NumClasses; label++ {
					want, err := Undersample(&Set{Size: cfg.Size, Samples: []Sample{{Pixels: renderDigit(cfg, label, 1, full, new(noiseDraws)), Label: label}}}, factor, Decimate)
					if err != nil {
						t.Fatal(err)
					}
					got := &Set{Size: cfg.Size / factor, Samples: []Sample{{Pixels: renderDigit(cfg, label, factor, dec, new(noiseDraws)), Label: label}}}
					sameSet(t, fmt.Sprintf("noise %v factor %d seed %d label %d", noise, factor, seed, label), got, want)
				}
				if g, w := dec.Uint64(), full.Uint64(); g != w {
					t.Fatalf("noise %v factor %d seed %d: next draw %#x, want %#x", noise, factor, seed, g, w)
				}
			}
		}
	}
}

// TestStrokePretestSkipsOnlyUncovered: wherever strokeSegment's squared
// distance test skips a pixel, the Hypot coverage it replaces is <= 0,
// over offsets from the segment on either side of the cut-off and every
// stroke width the renderer draws.
func TestStrokePretestSkipsOnlyUncovered(t *testing.T) {
	src := rng.New(5)
	for i := 0; i < 200000; i++ {
		width := 0.4 + 2*src.Float64()
		soft := width * 0.9
		far := farSq(width, soft)
		r := (width + soft) * (1 + (2*src.Float64()-1)*1e-6)
		if i%2 == 0 {
			r = (width + soft) * (0.5 + src.Float64())
		}
		a := 2 * math.Pi * src.Float64()
		ex, ey := r*math.Cos(a), r*math.Sin(a)
		if ex*ex+ey*ey <= far {
			continue
		}
		if cov := 1 - (math.Hypot(ex, ey)-width)/soft; cov > 0 {
			t.Fatalf("width %v offset (%v, %v): skipped at coverage %v", width, ex, ey, cov)
		}
	}
}

func TestSplit(t *testing.T) {
	set, _ := Generate(DefaultConfig(), 10, rng.New(13))
	a, b, err := set.Split(7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 7 || b.Len() != 3 {
		t.Fatalf("split sizes %d/%d", a.Len(), b.Len())
	}
	if _, _, err := set.Split(11); err == nil {
		t.Fatal("expected error for oversized split")
	}
	if _, _, err := set.Split(-1); err == nil {
		t.Fatal("expected error for negative split")
	}
}

func TestTargets(t *testing.T) {
	if Targets(3, 3) != 1 || Targets(3, 4) != -1 {
		t.Fatal("Targets wrong")
	}
}

func TestASCII(t *testing.T) {
	set, _ := Generate(DefaultConfig(), 1, rng.New(17))
	art := set.Samples[0].ASCII(set.Size)
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 28 {
		t.Fatalf("ASCII has %d lines, want 28", len(lines))
	}
	for _, l := range lines {
		if len(l) != 28 {
			t.Fatalf("ASCII line length %d, want 28", len(l))
		}
	}
	if !strings.ContainsAny(art, ":-=+*#%@") {
		t.Fatal("ASCII art has no ink")
	}
}

// toMatrix converts a Set to a design matrix and label slice.
func toMatrix(s *Set) (*mat.Matrix, []int) {
	x := mat.NewMatrix(s.Len(), s.Features())
	labels := make([]int, s.Len())
	for i, sample := range s.Samples {
		copy(x.Row(i), sample.Pixels)
		labels[i] = sample.Label
	}
	return x, labels
}

func TestLinearSeparabilityBand(t *testing.T) {
	// The headline dataset property: a linear 1-vs-all classifier on the
	// full-resolution set must land in the MNIST-like band (the paper's
	// model-limited maximum is ~85%), and accuracy must degrade
	// monotonically as images are under-sampled to 14x14 and 7x7
	// (Table 1's feature-loss effect).
	if testing.Short() {
		t.Skip("skipping training-based test in -short mode")
	}
	cfg := DefaultConfig()
	train, err := GenerateBalanced(cfg, 60, rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	test, err := GenerateBalanced(cfg, 30, rng.New(20))
	if err != nil {
		t.Fatal(err)
	}
	accAt := func(factor int) float64 {
		tr, err := Undersample(train, factor, Decimate)
		if err != nil {
			t.Fatal(err)
		}
		te, err := Undersample(test, factor, Decimate)
		if err != nil {
			t.Fatal(err)
		}
		xtr, ltr := toMatrix(tr)
		xte, lte := toMatrix(te)
		w, err := opt.TrainAll(xtr, ltr, NumClasses, 0, 0, opt.SGDConfig{Epochs: 40}, rng.New(21))
		if err != nil {
			t.Fatal(err)
		}
		return opt.Accuracy(xte, lte, w)
	}
	acc28 := accAt(1)
	acc7 := accAt(4)
	t.Logf("linear test accuracy: 28x28 %.3f, 7x7 %.3f", acc28, acc7)
	if acc28 < 0.75 || acc28 > 0.99 {
		t.Fatalf("28x28 accuracy %.3f outside the intended [0.75, 0.99] band", acc28)
	}
	if acc7 >= acc28 {
		t.Fatalf("7x7 accuracy %.3f did not degrade from 28x28 %.3f", acc7, acc28)
	}
}

var digitsSink *Set

// BenchmarkDigits times the train and test sets of each scale's
// protocol: Quick renders 7x7 images, Default 14x14 and Full 28x28. The
// two sets render on two goroutines, so compare at -cpu 1,2.
func BenchmarkDigits(b *testing.B) {
	for _, p := range []struct {
		name                string
		train, test, factor int
	}{
		{"quick", 25, 15, 4},
		{"default", 120, 70, 2},
		{"full", 400, 200, 1},
	} {
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				train, _, err := Digits(p.train, p.test, p.factor, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				digitsSink = train
			}
		})
	}
}
