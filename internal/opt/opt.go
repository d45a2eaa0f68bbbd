// Package opt solves the training optimizations of the paper in software:
// the conventional hinge-loss program of Eq. (3) (used by GDT/OLD) and the
// variation-aware program of Eq. (8)-(10) (used by VAT), via projected
// stochastic sub-gradient descent.
//
// Per output column r the VAT program is
//
//	min sum_i eps_i
//	s.t. yhat_i * (x_i . w) >= 1 - eps_i + gamma*rho*||x_i o w||_2
//
// where "o" is the element-wise product, rho bounds ||theta||_2 at the
// configured confidence (stats.ThetaNormBound, Eq. 7), and gamma in [0,1]
// scales the penalty of variations (Eq. 10). gamma == 0 recovers the
// conventional program. The per-sample hinge loss is
//
//	L_i(w) = max(0, 1 + gamma*rho*||x_i o w||_2 - yhat_i*(x_i . w))
//
// whose sub-gradient drives the SGD update. Weights are projected onto
// the box [-WMax, WMax] after every step: the crossbar can only realize a
// bounded conductance range, so the software training must respect the
// same dynamic range it will be mapped onto.
package opt

import (
	"errors"
	"math"
	"runtime"
	"sync/atomic"

	"vortex/internal/mat"
	"vortex/internal/obs"
	"vortex/internal/rng"
)

// Problem is one column's training program.
type Problem struct {
	X     *mat.Matrix // s x n input samples (rows are samples)
	Y     []float64   // s targets in {-1, +1}
	Gamma float64     // penalty-of-variations scale, [0, 1]
	Rho   float64     // ||theta||_2 bound from the variation model
}

// Validate checks the problem for consistency.
func (p Problem) Validate() error {
	if p.X == nil || p.X.Rows == 0 || p.X.Cols == 0 {
		return errors.New("opt: empty problem")
	}
	if len(p.Y) != p.X.Rows {
		return errors.New("opt: target length mismatch")
	}
	for _, y := range p.Y {
		if y != 1 && y != -1 {
			return errors.New("opt: targets must be +/-1")
		}
	}
	if p.Gamma < 0 || p.Gamma > 1 {
		return errors.New("opt: gamma out of [0,1]")
	}
	if p.Rho < 0 {
		return errors.New("opt: negative rho")
	}
	return nil
}

// SGDConfig tunes the solver. Zero values select the defaults noted on
// each field.
type SGDConfig struct {
	Epochs    int     // sweeps over the data; default 60
	Rate      float64 // initial learning rate; default 0.05
	RateDecay float64 // per-epoch multiplicative decay; default 0.97
	WMax      float64 // weight box bound; default 1
	Tol       float64 // early stop when mean loss change < Tol; default 1e-6
}

func (c SGDConfig) withDefaults() SGDConfig {
	if c.Epochs <= 0 {
		c.Epochs = 60
	}
	if c.Rate <= 0 {
		c.Rate = 0.05
	}
	if c.RateDecay <= 0 || c.RateDecay > 1 {
		c.RateDecay = 0.97
	}
	if c.WMax <= 0 {
		c.WMax = 1
	}
	if c.Tol <= 0 {
		c.Tol = 1e-6
	}
	return c
}

// SampleLoss returns the VAT hinge loss of one sample.
func SampleLoss(w, x []float64, y, gamma, rho float64) float64 {
	l, _ := hinge(y, mat.Dot(x, w), sumSq(x, w), gamma, rho)
	return l
}

// sumSq returns the sum Norm2 takes the square root of for v = x o w,
// in its order: each product is rounded, then squared, then added.
func sumSq(x, w []float64) float64 {
	s := 0.0
	for q, xv := range x {
		v := xv * w[q]
		s += v * v
	}
	return s
}

// hinge returns the VAT hinge loss max(0, 1 + gamma*rho*||x o w||_2 -
// y*dot) of a sample whose score x . w is dot and whose sum of squares
// of x o w is sq, and ||x o w||_2 (0 when the penalty is off, which
// ignores sq).
func hinge(y, dot, sq, gamma, rho float64) (loss, vnorm float64) {
	margin := y * dot
	pen := 0.0
	if gamma > 0 && rho > 0 {
		vnorm = math.Sqrt(sq)
		pen = gamma * rho * vnorm
	}
	loss = 1 + pen - margin
	if loss < 0 {
		loss = 0
	}
	return loss, vnorm
}

// TrainColumn solves the program with projected SGD and returns the
// weight vector. The sample order is shuffled per epoch using src, so
// training is deterministic in the seed.
//
// Training stops once the mean loss changes by less than Tol from one
// epoch to the next. Epoch e's loss decides whether epoch e+1 stands,
// so epoch e+1's pass computes it: it scores every sample against a
// snapshot of w as epoch e left it, in the same sweep that scores the
// current w. If the loss says stop, src is rolled back to before epoch
// e+1's shuffle and the snapshot is returned, so the weights and src's
// state are those of a loop that tests the loss before each epoch.
func TrainColumn(p Problem, cfg SGDConfig, src *rng.Source) ([]float64, error) {
	if err := validate(p, src); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	x16 := mat.NewScreenMatrix(p.X, cfg.WMax)
	return trainColumn(p, &x16, cfg, src, nil), nil
}

// validate returns the error TrainColumn reports for p and src, if any.
func validate(p Problem, src *rng.Source) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if src == nil {
		return errors.New("opt: nil rng source")
	}
	return nil
}

// trainColumn is TrainColumn on a valid problem, with cfg's defaults
// resolved and x16 = mat.NewScreenMatrix(p.X, cfg.WMax), which it only
// reads. Before each epoch it checks stop (when not nil); once stop is
// set it returns nil, leaving src wherever training got to. It adds
// the column's exact visits and loss terms to the opt.screen counters.
func trainColumn(p Problem, x16 *mat.ScreenMatrix, cfg SGDConfig, src *rng.Source, stop *atomic.Bool) []float64 {
	blk := new(block)
	defer func() {
		reg := obs.Default()
		reg.Counter("opt.screen.exact").Add(blk.exact)
		reg.Counter("opt.screen.terms").Add(blk.terms)
	}()
	n := p.X.Cols
	s := p.X.Rows
	w := make([]float64, n)
	order := make([]int, s)
	for i := range order {
		order[i] = i
	}
	rate := cfg.Rate
	prev := make([]float64, n)  // w as the previous epoch left it
	terms := make([]float64, s) // each sample's loss against prev
	prevLoss := math.Inf(1)
	for e := 0; e < cfg.Epochs; e++ {
		if stop != nil && stop.Load() {
			return nil
		}
		saved := *src
		copy(prev, w)
		src.Shuffle(s, func(i, j int) { order[i], order[j] = order[j], order[i] })
		blk.pass(p, x16, order, w, prev, terms, rate, cfg.WMax, e > 0)
		rate *= cfg.RateDecay
		if e == 0 {
			continue // prev is the zero start, whose loss nothing tests
		}
		loss := meanLoss(terms)
		if math.Abs(prevLoss-loss) < cfg.Tol {
			*src = saved // epoch e never ran
			return prev
		}
		if loss == 0 {
			// Every sample met its margin under prev, so epoch e took
			// no step (each decision is the exact chain's, and w
			// started equal to prev) and its loss is 0 again, which
			// would stop the loop here.
			return w
		}
		prevLoss = loss
	}
	return w
}

// meanLoss returns the mean of the per-sample loss terms, summed in
// ascending sample order.
func meanLoss(terms []float64) float64 {
	s := 0.0
	for _, l := range terms {
		s += l
	}
	return s / float64(len(terms))
}

// block is one column's pass scratch: the screen of the visited row and
// the loss terms queued for one mat.ScoreRows8 call. Both kernels go
// through the ISA dispatch, so their arguments escape to the heap;
// trainColumn allocates one block per column rather than one per pass.
type block struct {
	scr    mat.Screen
	sc     mat.Scores8
	off    [8]int // the queued samples' row offsets
	idx    [8]int // and their indices
	queued int
	exact  int64 // visits whose step the bound left undecided
	terms  int64 // loss terms computed exactly
}

// pass visits the samples in order and takes a projected sub-gradient
// step on w at rate for every sample that violates its margin; with
// withTerms it also sets terms[i] to sample i's loss against prev,
// which it does not change.
//
// Each visit first screens the sample's row from x16 against w and
// prev (mat.ScreenRow), then trusts the screen only where the row's
// bound proves what the exact chain would decide (DESIGN §4.1):
//
//   - the loss term is 0 if the bound proves the margin met under
//     prev; otherwise the sample is queued, and the queue is scored
//     exactly against prev, eight per mat.ScoreRows8 call;
//   - no step if the bound proves the margin met under w;
//   - a step if it proves the margin violated, with the VAT penalty's
//     ‖x∘w‖₂ from the exact chain;
//   - otherwise the exact chains decide, as in SampleLoss.
//
// So every decision is the exact chain's, and every value that enters
// w or terms comes from an exact chain. A step is one mat.StepRow
// call, the scalar update loop's arithmetic bit for bit.
func (blk *block) pass(p Problem, x16 *mat.ScreenMatrix, order []int, w, prev, terms []float64, rate, wmax float64, withTerms bool) {
	pen := p.Gamma > 0 && p.Rho > 0
	gr := p.Gamma * p.Rho
	// atLeast reports whether a margin m reaches the one a zero loss
	// needs given Σ(x∘v)² = sq, hinge's 1 + pen rounded as hinge rounds
	// it, and below whether it falls short of it. That threshold is at
	// least 1 and non-decreasing in sq. Both are false on a NaN, which
	// leaves the visit undecided.
	atLeast := func(m, sq float64) bool { return m >= 1 && (!pen || m >= 1+gr*math.Sqrt(sq)) }
	below := func(m, sq float64) bool { return m < 1 || pen && m < 1+gr*math.Sqrt(sq) }
	scr := &blk.scr
	for k, idx := range order {
		next := idx
		if k+1 < len(order) {
			next = order[k+1]
		}
		mat.ScreenRow(scr, x16, idx, next, w, prev, pen)
		ed, es := x16.Bounds(idx)
		y := p.Y[idx]
		if withTerms {
			if atLeast(y*scr.DotPrev-ed, scr.SqPrev+es) {
				terms[idx] = 0
			} else {
				blk.queue(p, idx, prev, terms)
			}
		}
		if atLeast(y*scr.Dot-ed, scr.Sq+es) {
			continue // satisfied with slack zero: no sub-gradient
		}
		x := p.X.Row(idx)
		vnorm := 0.0
		if below(y*scr.Dot+ed, max(scr.Sq-es, 0)) {
			if pen {
				vnorm = math.Sqrt(sumSq(x, w))
			}
		} else {
			blk.exact++
			sq := 0.0
			if pen {
				sq = sumSq(x, w)
			}
			var l float64
			if l, vnorm = hinge(y, mat.Dot(x, w), sq, p.Gamma, p.Rho); l <= 0 {
				continue
			}
		}
		// Sub-gradient step: dL/dw_q = -y*x_q + gamma*rho*x_q^2*w_q/||v||.
		coef := 0.0
		if vnorm > 1e-30 {
			coef = p.Gamma * p.Rho / vnorm
		}
		mat.StepRow(w, x, -y, coef, rate, wmax)
	}
	if withTerms && blk.queued > 0 {
		blk.score(p, prev, terms)
	}
}

// queue adds sample idx to the loss terms to score exactly against
// prev, scoring the queue once it holds eight.
func (blk *block) queue(p Problem, idx int, prev, terms []float64) {
	blk.idx[blk.queued], blk.off[blk.queued] = idx, idx*p.X.Cols
	if blk.queued++; blk.queued == len(blk.off) {
		blk.score(p, prev, terms)
	}
}

// score sets the queued samples' loss terms against prev from one
// mat.ScoreRows8 call, whose lanes are Dot's and Norm2's chains, and
// empties the queue. A partial queue repeats its first row in the
// unused lanes.
func (blk *block) score(p Problem, prev, terms []float64) {
	m := blk.queued
	for j := m; j < len(blk.off); j++ {
		blk.off[j] = blk.off[0]
	}
	mat.ScoreRows8(&blk.sc, p.X.Data, &blk.off, prev, p.Gamma > 0 && p.Rho > 0)
	for j, idx := range blk.idx[:m] {
		terms[idx], _ = hinge(p.Y[idx], blk.sc.Dot[j], blk.sc.Sq[j], p.Gamma, p.Rho)
	}
	blk.terms += int64(m)
	blk.queued = 0
}

// TrainAll trains one column per class with 1-vs-all targets and returns
// the n x classes weight matrix. labels[i] in [0, classes).
//
// The weights, and src's state afterwards, are those of TrainColumn
// called for class 0, 1, ... in turn on src, but up to GOMAXPROCS
// columns train at once. A column's shuffles start where its
// predecessor's ended. While the predecessor is still training, the
// column starts from where the predecessor ends if it runs every epoch,
// which early stopping can make wrong. Columns are kept in class order,
// each only after its start is checked against the state its
// predecessor really left. A column that fails the check is stopped and
// thrown away with every later one, and trained again from the right
// state. On error src is left as it was.
func TrainAll(x *mat.Matrix, labels []int, classes int, gamma, rho float64, cfg SGDConfig, src *rng.Source) (*mat.Matrix, error) {
	if len(labels) != x.Rows {
		return nil, errors.New("opt: label count mismatch")
	}
	w := mat.NewMatrix(x.Cols, classes)
	if classes == 0 {
		return w, nil // no column, so nothing to check
	}
	for _, l := range labels {
		if l < 0 || l >= classes {
			return nil, errors.New("opt: label out of range")
		}
	}
	// Every column's problem differs only in its ±1 targets, so class
	// 0's stands for all of them, and no column can fail.
	if err := validate(Problem{X: x, Y: targets(labels, 0), Gamma: gamma, Rho: rho}, src); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	x16 := mat.NewScreenMatrix(x, cfg.WMax) // read by every column
	workers := min(runtime.GOMAXPROCS(0), classes)
	done := make(chan *column) // unbuffered: every started column must be received
	truth := *src              // where the last kept column ended
	var live []*column         // started and not thrown away: classes kept, kept+1, ...
	kept, running := 0, 0
	var speculated, discarded int64
	for kept < classes {
		for running < workers && kept+len(live) < classes {
			col := &column{class: kept + len(live), start: truth}
			if k := len(live); k > 0 {
				speculated++
				if prev := live[k-1]; prev.finished {
					col.start = prev.end
				} else {
					col.start = prev.start
					for e := 0; e < cfg.Epochs; e++ {
						col.start.SkipShuffle(x.Rows)
					}
				}
			}
			live = append(live, col)
			running++
			go func() {
				s := col.start
				p := Problem{X: x, Y: targets(labels, col.class), Gamma: gamma, Rho: rho}
				col.w = trainColumn(p, &x16, cfg, &s, &col.stop)
				col.end = s
				done <- col
			}()
		}
		col := <-done
		running--
		if col.stop.Load() {
			continue // thrown away
		}
		col.finished = true
		// Check every start whose predecessor has finished: the first
		// live column's against truth, a later one's against the end of
		// the column before it.
		end := truth
		for i, c := range live {
			if c.start != end {
				for _, d := range live[i:] {
					d.stop.Store(true)
				}
				discarded += int64(len(live) - i)
				live = live[:i]
				break
			}
			if !c.finished {
				break
			}
			end = c.end
		}
		for len(live) > 0 && live[0].finished {
			w.SetCol(live[0].class, live[0].w)
			truth = live[0].end
			live = live[1:]
			kept++
		}
	}
	for ; running > 0; running-- {
		<-done // a thrown-away column, which stops within one pass
	}
	reg := obs.Default()
	reg.Counter("opt.trainall.speculated").Add(speculated)
	reg.Counter("opt.trainall.discarded").Add(discarded)
	*src = truth
	return w, nil
}

// column is one class's training in TrainAll. The goroutine that trains
// it writes w and end; TrainAll reads them after receiving the column.
type column struct {
	class    int
	start    rng.Source // the state its shuffles start from
	end      rng.Source // the state they left
	w        []float64
	finished bool        // received and not thrown away
	stop     atomic.Bool // set when it is thrown away
}

// targets returns class's 1-vs-all targets: +1 where the label is class,
// -1 elsewhere.
func targets(labels []int, class int) []float64 {
	y := make([]float64, len(labels))
	for i, l := range labels {
		y[i] = -1
		if l == class {
			y[i] = 1
		}
	}
	return y
}

// Accuracy returns the fraction of samples whose argmax output under
// y = x*W matches the label.
func Accuracy(x *mat.Matrix, labels []int, w *mat.Matrix) float64 {
	if x.Rows == 0 {
		return 0
	}
	scores := make([]float64, w.Cols)
	correct := 0
	for i := 0; i < x.Rows; i++ {
		scoreRow(scores, x.Row(i), w)
		if mat.ArgMax(scores) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(x.Rows)
}

// scoreRow overwrites scores with x*W.
func scoreRow(scores, x []float64, w *mat.Matrix) {
	clear(scores)
	for q, xv := range x {
		if xv == 0 {
			continue
		}
		row := w.Row(q)
		for c, wv := range row {
			scores[c] += xv * wv
		}
	}
}
