package opt

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"vortex/internal/dataset"
	"vortex/internal/mat"
	"vortex/internal/rng"
	"vortex/internal/stats"
)

// The reference trainer below scores one sample per mat.Dot call, in
// visiting order. It is the oracle the blocked trainer must reproduce
// bit for bit: the same weights and the same RNG consumption.

func refSampleLoss(w, x []float64, y, gamma, rho float64) float64 {
	margin := y * mat.Dot(x, w)
	pen := 0.0
	if gamma > 0 && rho > 0 {
		pen = gamma * rho * mat.Norm2(mat.HadamardVec(x, w))
	}
	l := 1 + pen - margin
	if l < 0 {
		return 0
	}
	return l
}

func refMeanLoss(p Problem, w []float64) float64 {
	s := 0.0
	for i := 0; i < p.X.Rows; i++ {
		s += refSampleLoss(w, p.X.Row(i), p.Y[i], p.Gamma, p.Rho)
	}
	return s / float64(p.X.Rows)
}

func refTrainColumn(p Problem, cfg SGDConfig, src *rng.Source) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, errors.New("opt: nil rng source")
	}
	cfg = cfg.withDefaults()
	n := p.X.Cols
	s := p.X.Rows
	w := make([]float64, n)
	order := make([]int, s)
	for i := range order {
		order[i] = i
	}
	rate := cfg.Rate
	prevLoss := math.Inf(1)
	v := make([]float64, n) // scratch for x o w
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		src.Shuffle(s, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			x := p.X.Row(idx)
			y := p.Y[idx]
			// Evaluate the active constraint.
			margin := y * mat.Dot(x, w)
			pen := 0.0
			var vnorm float64
			if p.Gamma > 0 && p.Rho > 0 {
				for q := range v {
					v[q] = x[q] * w[q]
				}
				vnorm = mat.Norm2(v)
				pen = p.Gamma * p.Rho * vnorm
			}
			if 1+pen-margin <= 0 {
				continue // satisfied with slack zero: no sub-gradient
			}
			// Sub-gradient step: dL/dw_q = -y*x_q + gamma*rho*x_q^2*w_q/||v||.
			coef := 0.0
			if vnorm > 1e-30 {
				coef = p.Gamma * p.Rho / vnorm
			}
			for q := 0; q < n; q++ {
				g := -y*x[q] + coef*x[q]*x[q]*w[q]
				wq := w[q] - rate*g
				if wq > cfg.WMax {
					wq = cfg.WMax
				} else if wq < -cfg.WMax {
					wq = -cfg.WMax
				}
				w[q] = wq
			}
		}
		rate *= cfg.RateDecay
		loss := refMeanLoss(p, w)
		if math.Abs(prevLoss-loss) < cfg.Tol {
			break
		}
		prevLoss = loss
	}
	return w, nil
}

// sparseProblem draws s samples of n features in [0, 1), about a third
// of them exact zeros like a digit's background. Targets follow a hidden
// weight vector, keeping only samples it scores at least margin from 0,
// or are coin flips when margin is 0, so no w separates them.
func sparseProblem(seed uint64, s, n int, margin float64) Problem {
	src := rng.New(seed)
	wTrue := src.NormVec(nil, n, 1)
	x := mat.NewMatrix(s, n)
	y := make([]float64, s)
	for i := 0; i < s; i++ {
		row := x.Row(i)
		for {
			for q := range row {
				row[q] = 0
				if src.Intn(3) > 0 {
					row[q] = src.Float64()
				}
			}
			if margin == 0 {
				y[i] = float64(2*src.Intn(2) - 1)
				break
			}
			if m := mat.Dot(row, wTrue); math.Abs(m) >= margin {
				y[i] = math.Copysign(1, m)
				break
			}
		}
	}
	return Problem{X: x, Y: y}
}

// epochsRun returns how many shuffles of s positions a fresh
// rng.New(seed) must draw before its next Uint64 is next: the number of
// epochs a trainer seeded with seed ran. It returns -1 if no count up to
// limit matches.
func epochsRun(seed uint64, s, limit int, next uint64) int {
	for e := 0; e <= limit; e++ {
		src := rng.New(seed)
		for k := 0; k < e; k++ {
			src.Shuffle(s, func(i, j int) {})
		}
		if src.Uint64() == next {
			return e
		}
	}
	return -1
}

// exit names how a trainer left its epoch loop, as seen from its result:
// the epochs it drew shuffles for and the mean loss of its weights.
type exit string

const (
	ranOut   exit = "ran every epoch"
	zeroLoss exit = "stopped at loss 0"
	stopped  exit = "stopped at a loss change below Tol"
)

func exitOf(ran, epochs int, loss float64) exit {
	switch {
	case loss == 0:
		return zeroLoss
	case ran == epochs:
		return ranOut
	default:
		return stopped
	}
}

// TestTrainColumnMatchesReference: the fused trainer returns the
// reference's weights bit for bit and leaves the source where the
// reference does, for GDT and VAT, at every sample count mod 8 and below
// eight, after one and two epochs, and on every exit: running out of
// epochs, stopping at loss 0 and stopping at a non-zero loss, each taken
// at gamma 0 and at gamma > 0. SampleLoss matches the reference's on the
// trained weights.
func TestTrainColumnMatchesReference(t *testing.T) {
	gammas := []float64{0, 0.05, 0.5}
	cases := []struct {
		s, n   int
		margin float64 // 0: coin-flip targets
		cfg    SGDConfig
		exits  [3]exit // at each of gammas; "" leaves it unchecked
	}{
		// A one-sample shuffle draws nothing, so at s 1 only a zero loss
		// tells the exit.
		{s: 1, n: 7, margin: 0.5, exits: [3]exit{zeroLoss, zeroLoss, ""}},
		{s: 2, n: 7, margin: 0.5, exits: [3]exit{ranOut, ranOut, ranOut}},
		{s: 3, n: 7, margin: 0.5, exits: [3]exit{zeroLoss, ranOut, ranOut}},
		{s: 4, n: 7, margin: 0.5, exits: [3]exit{ranOut, ranOut, ranOut}},
		{s: 5, n: 7, margin: 0.5, exits: [3]exit{ranOut, ranOut, ranOut}},
		{s: 250, n: 49, margin: 0.5, cfg: SGDConfig{Epochs: 200, Rate: 0.1}, exits: [3]exit{zeroLoss, ranOut, stopped}},
		{s: 1201, n: 49, exits: [3]exit{ranOut, ranOut, ranOut}},
		{s: 1201, n: 49, cfg: SGDConfig{Epochs: 1}, exits: [3]exit{ranOut, ranOut, ranOut}},
		{s: 250, n: 49, cfg: SGDConfig{Epochs: 1}, exits: [3]exit{ranOut, ranOut, ranOut}},
		{s: 1201, n: 128, exits: [3]exit{ranOut, ranOut, ranOut}},
		{s: 1201, n: 128, margin: 6, exits: [3]exit{zeroLoss, zeroLoss, ranOut}},
		{s: 1201, n: 128, cfg: SGDConfig{Tol: 1e-2}, exits: [3]exit{stopped, stopped, stopped}},
		{s: 1201, n: 128, cfg: SGDConfig{Epochs: 1}, exits: [3]exit{ranOut, ranOut, ranOut}},
		{s: 1201, n: 128, cfg: SGDConfig{Epochs: 2}, exits: [3]exit{ranOut, ranOut, ranOut}},
		{s: 1201, n: 128, margin: 6, cfg: SGDConfig{Epochs: 2}, exits: [3]exit{ranOut, ranOut, ranOut}},
		// The remaining counts below and mod 8.
		{s: 6, n: 7, margin: 0.5},
		{s: 7, n: 7, margin: 0.5},
		{s: 8, n: 7, margin: 0.5},
		{s: 9, n: 7, margin: 0.5},
		{s: 17, n: 5, margin: 0.5},
		{s: 1203, n: 49, cfg: SGDConfig{Epochs: 12}},
		{s: 1204, n: 49, cfg: SGDConfig{Epochs: 12}},
		{s: 1205, n: 49, cfg: SGDConfig{Epochs: 12}},
		{s: 1206, n: 49, cfg: SGDConfig{Epochs: 12}},
		{s: 1207, n: 49, cfg: SGDConfig{Epochs: 12}},
		{s: 1208, n: 49, cfg: SGDConfig{Epochs: 12}},
	}
	taken := map[bool]map[exit]bool{false: {}, true: {}} // by gamma > 0
	for ci, c := range cases {
		for gi, gamma := range gammas {
			p := sparseProblem(uint64(31+ci), c.s, c.n, c.margin)
			p.Gamma = gamma
			if gamma > 0 {
				p.Rho = stats.ThetaNormBound(0.6, c.n, 0.9)
			}
			name := fmt.Sprintf("s %d n %d margin %v %+v gamma %v", c.s, c.n, c.margin, c.cfg, gamma)
			seed := uint64(1000 + ci)
			src, refSrc := rng.New(seed), rng.New(seed)
			w, err := TrainColumn(p, c.cfg, src)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refTrainColumn(p, c.cfg, refSrc)
			if err != nil {
				t.Fatal(err)
			}
			for q := range want {
				if math.Float64bits(w[q]) != math.Float64bits(want[q]) {
					t.Fatalf("%s: w[%d] = %v, reference %v", name, q, w[q], want[q])
				}
			}
			next, refNext := src.Uint64(), refSrc.Uint64()
			if next != refNext {
				t.Fatalf("%s: source's next draw %x, reference %x", name, next, refNext)
			}
			l := refMeanLoss(p, w)
			epochs := c.cfg.withDefaults().Epochs
			ran := epochsRun(seed, c.s, epochs, next)
			got := exitOf(ran, epochs, l)
			if c.exits[gi] != "" && got != c.exits[gi] {
				t.Errorf("%s: %s after %d of %d epochs at loss %v, case wants %s", name, got, ran, epochs, l, c.exits[gi])
			}
			taken[gamma > 0][got] = true
			for i := 0; i < p.X.Rows && i < 5; i++ {
				l := SampleLoss(w, p.X.Row(i), p.Y[i], p.Gamma, p.Rho)
				if ref := refSampleLoss(w, p.X.Row(i), p.Y[i], p.Gamma, p.Rho); math.Float64bits(l) != math.Float64bits(ref) {
					t.Fatalf("%s: SampleLoss(%d) %v, reference %v", name, i, l, ref)
				}
			}
		}
	}
	for _, pen := range []bool{false, true} {
		for _, e := range []exit{ranOut, zeroLoss, stopped} {
			if !taken[pen][e] {
				t.Errorf("no case at gamma > 0 %v %s", pen, e)
			}
		}
	}
}

// TestSweepLossMatchesReference: the loss an SGD pass gives for its
// snapshot is refMeanLoss of that snapshot, bit for bit, and the pass
// leaves the snapshot alone, for GDT and VAT at every sample count mod
// 8 and below eight, with a snapshot the pass starts from and one it
// does not.
func TestSweepLossMatchesReference(t *testing.T) {
	for _, s := range []int{1, 5, 8, 13, 250, 1201, 1202, 1203, 1204, 1205, 1206, 1207, 1208} {
		for _, gamma := range []float64{0, 0.05, 0.5} {
			p := sparseProblem(uint64(s), s, 49, 0)
			p.Gamma = gamma
			if gamma > 0 {
				p.Rho = stats.ThetaNormBound(0.6, 49, 0.9)
			}
			src := rng.New(uint64(s) + 7)
			order := src.Perm(s)
			prev := src.NormVec(nil, 49, 0.2)
			for _, fresh := range []bool{false, true} {
				w := append([]float64(nil), prev...)
				if fresh {
					w = src.NormVec(nil, 49, 0.2)
				}
				kept := append([]float64(nil), prev...)
				terms := make([]float64, s)
				sgdPass(p, order, w, prev, terms, new(block), 0.05, 1)
				got, want := meanLoss(terms), refMeanLoss(p, kept)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("s %d gamma %v fresh w %v: sweep loss %v, reference %v", s, gamma, fresh, got, want)
				}
				for q := range prev {
					if math.Float64bits(prev[q]) != math.Float64bits(kept[q]) {
						t.Fatalf("s %d gamma %v: the pass changed prev[%d]", s, gamma, q)
					}
				}
			}
		}
	}
}

// TestTrainAllMatchesReference: TrainAll's ten columns are ten
// refTrainColumn calls, in class order, that share one source. It runs
// on the generated digits at the Quick (250 x 49) and Default (1,200 x
// 196) sizes for GDT and VAT, and at Full (4,000 x 784) for GDT.
func TestTrainAllMatchesReference(t *testing.T) {
	sizes := []struct {
		perClass, factor, epochs int
		gammas                   []float64
	}{{25, 4, 20, []float64{0, 0.05}}, {120, 2, 40, []float64{0, 0.05}}, {400, 1, 60, []float64{0}}}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, sz := range sizes {
		train, _, err := dataset.Digits(sz.perClass, 0, sz.factor, 5)
		if err != nil {
			t.Fatal(err)
		}
		x, labels := train.ToMatrix()
		rho := stats.ThetaNormBound(0.6, x.Cols, 0.9)
		cfg := SGDConfig{Epochs: sz.epochs}
		for _, gamma := range sz.gammas {
			name := fmt.Sprintf("%d x %d gamma %v", x.Rows, x.Cols, gamma)
			src, refSrc := rng.New(11), rng.New(11)
			w, err := TrainAll(x, labels, dataset.NumClasses, gamma, rho, cfg, src)
			if err != nil {
				t.Fatal(err)
			}
			y := make([]float64, x.Rows)
			for class := 0; class < dataset.NumClasses; class++ {
				for i, l := range labels {
					y[i] = -1
					if l == class {
						y[i] = 1
					}
				}
				want, err := refTrainColumn(Problem{X: x, Y: y, Gamma: gamma, Rho: rho}, cfg, refSrc)
				if err != nil {
					t.Fatal(err)
				}
				for q, got := range w.Col(class) {
					if math.Float64bits(got) != math.Float64bits(want[q]) {
						t.Fatalf("%s: class %d w[%d] = %v, reference %v", name, class, q, got, want[q])
					}
				}
			}
			if next, refNext := src.Uint64(), refSrc.Uint64(); next != refNext {
				t.Fatalf("%s: source's next draw %x, reference %x", name, next, refNext)
			}
		}
	}
}

// TestTrainColumnAllocs: TrainColumn allocates its buffers once per
// call: as many allocations for 30 epochs as for one, with the penalty
// on or off.
func TestTrainColumnAllocs(t *testing.T) {
	p := sparseProblem(3, 203, 49, 0)
	for _, gamma := range []float64{0, 0.05} {
		p.Gamma, p.Rho = gamma, 3
		allocs := func(epochs int) float64 {
			src := rng.New(4)
			return testing.AllocsPerRun(5, func() {
				if _, err := TrainColumn(p, SGDConfig{Epochs: epochs}, src); err != nil {
					t.Fatal(err)
				}
			})
		}
		if one, many := allocs(1), allocs(30); many != one || one > 6 {
			t.Fatalf("gamma %v: TrainColumn allocates %v per call at 1 epoch and %v at 30, want the same and at most 6", gamma, one, many)
		}
	}
}

// benchSink keeps BenchmarkTrainAll's result live.
var benchSink *mat.Matrix

// BenchmarkTrainAll trains the ten 1-vs-all columns on the generated
// digits, for GDT and for VAT at gamma 0.05, at the experiments' Quick
// (250 x 49, 20 epochs), Default (1,200 x 196, 40 epochs) and Full
// (4,000 x 784, 60 epochs) sizes. Training runs on one goroutine, so
// -cpu 1 and -cpu 2 should read alike.
func BenchmarkTrainAll(b *testing.B) {
	sizes := []struct {
		name                    string
		perClass, factor, epoch int
	}{
		{"quick", 25, 4, 20},
		{"default", 120, 2, 40},
		{"full", 400, 1, 60},
	}
	for _, sz := range sizes {
		train, _, err := dataset.Digits(sz.perClass, 0, sz.factor, 1001)
		if err != nil {
			b.Fatal(err)
		}
		x, labels := train.ToMatrix()
		rho := stats.ThetaNormBound(0.6, x.Cols, 0.9)
		for _, gamma := range []float64{0, 0.05} {
			b.Run(fmt.Sprintf("%s/gamma=%v", sz.name, gamma), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					w, err := TrainAll(x, labels, dataset.NumClasses, gamma, rho, SGDConfig{Epochs: sz.epoch}, rng.New(7))
					if err != nil {
						b.Fatal(err)
					}
					benchSink = w
				}
			})
		}
	}
}
