package opt

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"vortex/internal/dataset"
	"vortex/internal/mat"
	"vortex/internal/obs"
	"vortex/internal/rng"
	"vortex/internal/stats"
)

// The reference trainer below scores one sample per mat.Dot call, in
// visiting order. It is the oracle the screened trainer must reproduce
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

// shufflesDrawn returns how many shuffles of s positions take a source
// from start to end, or -1 if no count up to limit does: the number of
// epochs a trainer that started at start and left end ran.
func shufflesDrawn(start, end rng.Source, s, limit int) int {
	for e := 0; e <= limit; e++ {
		if start == end {
			return e
		}
		start.SkipShuffle(s)
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
			end := *src
			next, refNext := src.Uint64(), refSrc.Uint64()
			if next != refNext {
				t.Fatalf("%s: source's next draw %x, reference %x", name, next, refNext)
			}
			l := refMeanLoss(p, w)
			epochs := c.cfg.withDefaults().Epochs
			ran := shufflesDrawn(*rng.New(seed), end, c.s, epochs)
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
				x16 := mat.NewScreenMatrix(p.X, 1)
				new(block).pass(p, &x16, order, w, prev, terms, 0.05, 1, true)
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

// atProcs calls f at GOMAXPROCS 1, 2 and 4, then restores the setting.
func atProcs(f func(procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		f(procs)
	}
}

// TestTrainAllMatchesReference: TrainAll's ten columns are ten
// refTrainColumn calls, in class order, that share one source, at
// GOMAXPROCS 1, 2 and 4. It runs on the generated digits at the Quick
// (250 x 49) and Default (1,200 x 196) sizes for GDT and VAT, and at
// Full (4,000 x 784) for GDT.
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
			want := mat.NewMatrix(x.Cols, dataset.NumClasses)
			refSrc := rng.New(11)
			for class := 0; class < dataset.NumClasses; class++ {
				col, err := refTrainColumn(Problem{X: x, Y: targets(labels, class), Gamma: gamma, Rho: rho}, cfg, refSrc)
				if err != nil {
					t.Fatal(err)
				}
				want.SetCol(class, col)
			}
			refNext := refSrc.Uint64()
			atProcs(func(procs int) {
				name := fmt.Sprintf("%d x %d gamma %v GOMAXPROCS %d", x.Rows, x.Cols, gamma, procs)
				src := rng.New(11)
				w, err := TrainAll(x, labels, dataset.NumClasses, gamma, rho, cfg, src)
				if err != nil {
					t.Fatal(err)
				}
				sameWeights(t, name, w, want)
				if next := src.Uint64(); next != refNext {
					t.Fatalf("%s: source's next draw %x, reference %x", name, next, refNext)
				}
			})
		}
	}
}

// sameWeights fails the test unless got and want are equal bit for bit.
func sameWeights(t *testing.T, name string, got, want *mat.Matrix) {
	t.Helper()
	for k, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[k]) {
			t.Fatalf("%s: class %d w[%d] = %v, want %v", name, k%want.Cols, k/want.Cols, v, want.Data[k])
		}
	}
}

// classProblem labels sparseProblem(seed, s, n, margin)'s samples for
// TrainAll over classes classes: class 0 where the target is +1, one of
// the others at random elsewhere. With a wide margin class 0's column
// is separable and stops at loss 0; the others' targets are random.
func classProblem(seed uint64, s, n int, margin float64, classes int) (*mat.Matrix, []int) {
	p := sparseProblem(seed, s, n, margin)
	pick := rng.New(seed + 1)
	labels := make([]int, s)
	for i, y := range p.Y {
		if y < 0 {
			labels[i] = 1 + pick.Intn(classes-1)
		}
	}
	return p.X, labels
}

// TestTrainAllSpeculation: on problems whose columns stop at loss 0, run
// out of epochs or stop at a loss change below Tol, so that some guessed
// starts hold and others miss, TrainAll at GOMAXPROCS 1, 2 and 4 returns
// the weights of a serial chain of TrainColumn calls on one source, bit
// for bit, and leaves the source where the chain does. At GOMAXPROCS 1
// no column starts from a guess; above it, on the problem whose first
// column stops at loss 0, some guessed columns are kept and some thrown
// away.
func TestTrainAllSpeculation(t *testing.T) {
	const s, n, classes = 1201, 128, 6
	speculated := obs.Default().Counter("opt.trainall.speculated")
	discarded := obs.Default().Counter("opt.trainall.discarded")
	cases := []struct {
		margin, gamma float64
		cfg           SGDConfig
		exits         []exit // each must be among the serial chain's
		mustMiss      bool   // above GOMAXPROCS 1 some guesses miss and some hold
	}{
		{margin: 6, exits: []exit{zeroLoss, ranOut}, mustMiss: true},
		{margin: 6, gamma: 0.05, exits: []exit{zeroLoss, ranOut}, mustMiss: true},
		{margin: 6, cfg: SGDConfig{Tol: 1e-2}, exits: []exit{stopped}},
	}
	for ci, c := range cases {
		x, labels := classProblem(uint64(51+ci), s, n, c.margin, classes)
		rho := 0.0
		if c.gamma > 0 {
			rho = stats.ThetaNormBound(0.6, n, 0.9)
		}
		epochs := c.cfg.withDefaults().Epochs
		want := mat.NewMatrix(n, classes)
		serial := rng.New(7)
		taken := map[exit]bool{}
		for class := 0; class < classes; class++ {
			p := Problem{X: x, Y: targets(labels, class), Gamma: c.gamma, Rho: rho}
			start := *serial
			col, err := TrainColumn(p, c.cfg, serial)
			if err != nil {
				t.Fatal(err)
			}
			want.SetCol(class, col)
			taken[exitOf(shufflesDrawn(start, *serial, s, epochs), epochs, refMeanLoss(p, col))] = true
		}
		for _, e := range c.exits {
			if !taken[e] {
				t.Fatalf("case %d: no column %s (exits %v)", ci, e, taken)
			}
		}
		serialNext := serial.Uint64()
		atProcs(func(procs int) {
			name := fmt.Sprintf("case %d GOMAXPROCS %d", ci, procs)
			spec0, disc0 := speculated.Value(), discarded.Value()
			src := rng.New(7)
			w, err := TrainAll(x, labels, classes, c.gamma, rho, c.cfg, src)
			if err != nil {
				t.Fatal(err)
			}
			sameWeights(t, name, w, want)
			if next := src.Uint64(); next != serialNext {
				t.Fatalf("%s: source's next draw %x, serial chain's %x", name, next, serialNext)
			}
			spec, disc := speculated.Value()-spec0, discarded.Value()-disc0
			t.Logf("%s: %d columns started before their predecessor was kept, %d of them thrown away", name, spec, disc)
			switch {
			case procs == 1 && spec != 0:
				t.Fatalf("%s: %d columns started before their predecessor was kept", name, spec)
			case procs > 1 && c.mustMiss && (disc == 0 || spec == disc):
				t.Fatalf("%s: %d columns started before their predecessor was kept, %d thrown away; want some of each", name, spec, disc)
			}
		})
	}
}

// TestTrainAllLeavesNoGoroutine: TrainAll waits for every goroutine it
// starts, so the goroutine count is back to its starting value after a
// run in which every guess holds, one in which some miss, and one that
// fails its problem check. Run it under -race.
func TestTrainAllLeavesNoGoroutine(t *testing.T) {
	discarded := obs.Default().Counter("opt.trainall.discarded")
	cases := []struct {
		name   string
		margin float64
		gamma  float64
		cfg    SGDConfig
		misses bool // above GOMAXPROCS 1 some guesses miss
	}{
		{"every guess holds", 0, 0, SGDConfig{Epochs: 5}, false},
		{"guesses miss", 6, 0, SGDConfig{}, true},
		{"gamma out of range", 6, 2, SGDConfig{}, false},
	}
	atProcs(func(procs int) {
		for _, c := range cases {
			x, labels := classProblem(61, 1201, 128, c.margin, 6)
			disc := discarded.Value()
			before := runtime.NumGoroutine()
			_, err := TrainAll(x, labels, 6, c.gamma, 0, c.cfg, rng.New(3))
			if (err != nil) != (c.gamma > 1) {
				t.Fatalf("%s: error %v", c.name, err)
			}
			if missed := discarded.Value() > disc; missed != (c.misses && procs > 1) {
				t.Fatalf("%s at GOMAXPROCS %d: guesses thrown away %v", c.name, procs, missed)
			}
			deadline := time.Now().Add(time.Second)
			for runtime.NumGoroutine() != before {
				if time.Now().After(deadline) {
					t.Fatalf("%s at GOMAXPROCS %d: %d goroutines after TrainAll returned, %d before", c.name, procs, runtime.NumGoroutine(), before)
				}
				runtime.Gosched()
			}
		}
	})
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
// (4,000 x 784, 60 epochs) sizes. The columns train on up to GOMAXPROCS
// goroutines, so -cpu 2 reads faster than -cpu 1 by as much as the
// guessed starts hold. It reports, per call, the visits whose step the
// screen's bound left undecided (exact/op) and the loss terms computed
// exactly (terms/op), thrown-away columns included.
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
				exact0, terms0 := screenCounts()
				for i := 0; i < b.N; i++ {
					w, err := TrainAll(x, labels, dataset.NumClasses, gamma, rho, SGDConfig{Epochs: sz.epoch}, rng.New(7))
					if err != nil {
						b.Fatal(err)
					}
					benchSink = w
				}
				exact, terms := screenCounts()
				b.ReportMetric(float64(exact-exact0)/float64(b.N), "exact/op")
				b.ReportMetric(float64(terms-terms0)/float64(b.N), "terms/op")
			})
		}
	}
}
