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

	"vortex/internal/mat"
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
	l, _ := hinge(x, w, make([]float64, len(x)), y, mat.Dot(x, w), gamma, rho)
	return l
}

// MeanLoss returns the average VAT hinge loss of w on the problem. It
// scores four consecutive samples per mat.Dot4 call and sums the losses
// in ascending sample order.
func MeanLoss(p Problem, w []float64) float64 {
	var v []float64 // scratch for x o w
	if p.Gamma > 0 && p.Rho > 0 {
		v = make([]float64, len(w))
	}
	x := p.X
	s := 0.0
	i := 0
	for ; i+4 <= x.Rows; i += 4 {
		d0, d1, d2, d3 := mat.Dot4(x.Row(i), x.Row(i+1), x.Row(i+2), x.Row(i+3), w)
		for k, dot := range [4]float64{d0, d1, d2, d3} {
			l, _ := hinge(x.Row(i+k), w, v, p.Y[i+k], dot, p.Gamma, p.Rho)
			s += l
		}
	}
	for ; i < x.Rows; i++ {
		l, _ := hinge(x.Row(i), w, v, p.Y[i], mat.Dot(x.Row(i), w), p.Gamma, p.Rho)
		s += l
	}
	return s / float64(x.Rows)
}

// hinge returns the VAT hinge loss max(0, 1 + gamma*rho*||x o w||_2 -
// y*dot) of a sample whose score x . w is dot, and ||x o w||_2 (0 when
// the penalty is off). v is scratch for x o w, as long as x; it is not
// touched when the penalty is off.
func hinge(x, w, v []float64, y, dot, gamma, rho float64) (loss, vnorm float64) {
	margin := y * dot
	pen := 0.0
	if gamma > 0 && rho > 0 {
		for q := range v {
			v[q] = x[q] * w[q]
		}
		vnorm = mat.Norm2(v)
		pen = gamma * rho * vnorm
	}
	loss = 1 + pen - margin
	if loss < 0 {
		loss = 0
	}
	return loss, vnorm
}

// overlapMin is the smallest pass, in multiply-adds (samples x features),
// whose early-stop loss TrainColumn computes on a second goroutine. Below
// it, starting and waking that goroutine every epoch costs more than the
// overlap saves (DESIGN.md §4.1 has the sweep).
const overlapMin = 1 << 17

// TrainColumn solves the program with projected SGD and returns the
// weight vector. The sample order is shuffled per epoch using src, so
// training is deterministic in the seed.
//
// Training stops once the mean loss changes by less than Tol from one
// epoch to the next. Epoch e's loss decides whether epoch e+1 stands, so
// it is computed on a snapshot of w while epoch e+1 runs: on a second
// goroutine from overlapMin multiply-adds per pass, inline below it. If
// the loss says stop, src is rolled back to before epoch e+1's shuffle
// and the snapshot is returned, so the weights and src's state are
// those of a loop that tests the loss before each epoch. TrainColumn
// waits for the goroutine before it returns.
func TrainColumn(p Problem, cfg SGDConfig, src *rng.Source) ([]float64, error) {
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
	v := make([]float64, n) // scratch for x o w
	epoch := func() {
		src.Shuffle(s, func(i, j int) { order[i], order[j] = order[j], order[i] })
		sgdPass(p, order, w, v, rate, cfg.WMax)
		rate *= cfg.RateDecay
	}
	epoch()
	overlap := s*n >= overlapMin
	prev := make([]float64, n) // w as the previous epoch left it
	prevLoss := math.Inf(1)
	// One slot: the goroutine never waits for the receive, and the
	// inline path sends before it receives.
	lossc := make(chan float64, 1)
	for e := 1; e < cfg.Epochs; e++ {
		saved := *src
		copy(prev, w)
		if overlap {
			go func() { lossc <- MeanLoss(p, prev) }()
		} else {
			lossc <- MeanLoss(p, prev)
		}
		epoch()
		loss := <-lossc
		if math.Abs(prevLoss-loss) < cfg.Tol {
			*src = saved // epoch e never ran
			return prev, nil
		}
		if loss == 0 {
			// Every sample met its margin, so epoch e took no step (its
			// pass shares hinge with MeanLoss) and its loss is 0 again,
			// which would stop the loop here.
			return w, nil
		}
		prevLoss = loss
	}
	return w, nil
}

// sgdPass visits the samples in order and takes a projected sub-gradient
// step on w at rate for every sample that violates its margin. v is
// scratch for x o w.
//
// It scores the next four positions per mat.Dot4 call (a pass's last
// three one mat.Dot each) against the current w, then visits them in
// order. A step replaces w and leaves the later scores stale, so the
// pass rescores from the position after it; most samples take no step.
func sgdPass(p Problem, order []int, w, v []float64, rate, wmax float64) {
	s := len(order)
	var dots [4]float64
	for k := 0; k < s; {
		m := 1
		if s-k >= 4 {
			m = 4
			dots[0], dots[1], dots[2], dots[3] = mat.Dot4(p.X.Row(order[k]), p.X.Row(order[k+1]),
				p.X.Row(order[k+2]), p.X.Row(order[k+3]), w)
		} else {
			dots[0] = mat.Dot(p.X.Row(order[k]), w)
		}
		for _, dot := range dots[:m] {
			idx := order[k]
			k++
			x := p.X.Row(idx)
			y := p.Y[idx]
			// Evaluate the active constraint.
			l, vnorm := hinge(x, w, v, y, dot, p.Gamma, p.Rho)
			if l <= 0 {
				continue // satisfied with slack zero: no sub-gradient
			}
			// Sub-gradient step: dL/dw_q = -y*x_q + gamma*rho*x_q^2*w_q/||v||.
			coef := 0.0
			if vnorm > 1e-30 {
				coef = p.Gamma * p.Rho / vnorm
			}
			for q := range w {
				g := -y*x[q] + coef*x[q]*x[q]*w[q]
				wq := w[q] - rate*g
				if wq > wmax {
					wq = wmax
				} else if wq < -wmax {
					wq = -wmax
				}
				w[q] = wq
			}
			break // the block's later scores are stale
		}
	}
}

// TrainAll trains one column per class with 1-vs-all targets and returns
// the n x classes weight matrix. labels[i] in [0, classes).
func TrainAll(x *mat.Matrix, labels []int, classes int, gamma, rho float64, cfg SGDConfig, src *rng.Source) (*mat.Matrix, error) {
	if len(labels) != x.Rows {
		return nil, errors.New("opt: label count mismatch")
	}
	w := mat.NewMatrix(x.Cols, classes)
	y := make([]float64, x.Rows)
	for class := 0; class < classes; class++ {
		for i, l := range labels {
			if l < 0 || l >= classes {
				return nil, errors.New("opt: label out of range")
			}
			if l == class {
				y[i] = 1
			} else {
				y[i] = -1
			}
		}
		col, err := TrainColumn(Problem{X: x, Y: y, Gamma: gamma, Rho: rho}, cfg, src)
		if err != nil {
			return nil, err
		}
		w.SetCol(class, col)
	}
	return w, nil
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
