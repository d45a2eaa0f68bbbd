package hw

import (
	"errors"
	"fmt"
	"math"

	"vortex/internal/adc"
	"vortex/internal/device"
	"vortex/internal/mat"
	"vortex/internal/rng"
)

// AnalyticArray is the fast Array backend: pure conductance-matrix math
// with the lognormal parametric variation applied as a static per-cell
// factor. It keeps three flat slices (driven log-resistance, theta,
// defect kind) instead of per-cell device objects, caches the
// conductance matrix between programming passes, and never builds a
// parasitic network.
//
// Validity: the backend is exactly equivalent to the circuit backend
// when RWire = 0 — fabrication draws, programming dynamics (the same
// SwitchModel pre-calculations), cycle-to-cycle noise streams and
// observable conductances all match bit for bit, which the differential
// tests assert. It does not model IR-drop, half-select disturb,
// retention drift or endurance wear, so NewAnalytic rejects
// configurations that ask for wires or disturb rather than silently
// mis-simulating them.
type AnalyticArray struct {
	cfg    Config
	x      []float64 // driven log-resistance per cell, row-major
	theta  []float64 // fabrication-time parametric variation
	defect []device.DefectKind
	src    *rng.Source
	stats  ProgramStats
	met    *Metrics

	g *mat.Matrix // cached observable conductances; nil = dirty
}

var _ Array = (*AnalyticArray)(nil)
var _ DefectAccessor = (*AnalyticArray)(nil)

// NewAnalytic fabricates an analytic array. The fabrication draw
// sequence (theta, then defect Bernoulli per cell) matches the circuit
// backend's, so the same seed produces the same physical array on both.
// All devices start at HRS.
func NewAnalytic(cfg Config, src *rng.Source) (*AnalyticArray, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, errors.New("hw: nil rng source")
	}
	if cfg.RWire != 0 {
		return nil, errors.New("hw: analytic backend requires RWire = 0 (no parasitic network); use the circuit backend")
	}
	if cfg.Disturb {
		return nil, errors.New("hw: analytic backend does not model half-select disturb; use the circuit backend")
	}
	n := cfg.Rows * cfg.Cols
	a := &AnalyticArray{
		cfg:    cfg,
		x:      make([]float64, n),
		theta:  make([]float64, n),
		defect: make([]device.DefectKind, n),
		src:    src,
		met:    MetricsFor(Analytic.String()),
	}
	xmax := cfg.Model.XMax()
	for i := 0; i < n; i++ {
		if cfg.Sigma > 0 {
			a.theta[i] = src.Normal(0, cfg.Sigma)
		}
		a.x[i] = xmax
		if cfg.DefectRate > 0 && src.Bernoulli(cfg.DefectRate) {
			if src.Bernoulli(0.5) {
				a.defect[i] = device.DefectStuckLRS
			} else {
				a.defect[i] = device.DefectStuckHRS
			}
		}
	}
	return a, nil
}

// Config returns the array configuration.
func (a *AnalyticArray) Config() Config { return a.cfg }

// Rows returns the number of word lines.
func (a *AnalyticArray) Rows() int { return a.cfg.Rows }

// Cols returns the number of bit lines.
func (a *AnalyticArray) Cols() int { return a.cfg.Cols }

func (a *AnalyticArray) index(i, j int) int {
	if i < 0 || i >= a.cfg.Rows || j < 0 || j >= a.cfg.Cols {
		panic(fmt.Sprintf("hw: cell (%d,%d) out of %dx%d", i, j, a.cfg.Rows, a.cfg.Cols))
	}
	return i*a.cfg.Cols + j
}

// conductance returns the observable conductance of one cell, using the
// same floating-point path as device.Memristor.Conductance so the two
// backends agree exactly.
func (a *AnalyticArray) conductance(idx int) float64 {
	switch a.defect[idx] {
	case device.DefectStuckLRS:
		return 1 / (a.cfg.Model.Ron * math.Exp(a.theta[idx]))
	case device.DefectStuckHRS:
		return 1 / (a.cfg.Model.Roff * math.Exp(a.theta[idx]))
	case device.DefectOpen:
		return 1 / device.ROpen
	}
	return 1 / math.Exp(a.x[idx]+a.theta[idx])
}

// dirty invalidates the cached conductance matrix.
func (a *AnalyticArray) dirty() { a.g = nil }

// matrix returns (rebuilding if stale) the cached conductance matrix.
// Callers must not mutate it; Conductances clones it for the outside
// world.
func (a *AnalyticArray) matrix() *mat.Matrix {
	if a.g == nil {
		g := mat.NewMatrix(a.cfg.Rows, a.cfg.Cols)
		for i := range g.Data {
			g.Data[i] = a.conductance(i)
		}
		a.g = g
	}
	return a.g
}

// Conductances returns a snapshot of the observable conductance matrix.
func (a *AnalyticArray) Conductances() *mat.Matrix { return a.matrix().Clone() }

// EffectiveWeights returns the exact linear read map — for ideal wires,
// the conductance matrix itself.
func (a *AnalyticArray) EffectiveWeights() (*mat.Matrix, error) {
	return a.Conductances(), nil
}

// Defect returns the defect state of cell (i, j).
func (a *AnalyticArray) Defect(i, j int) device.DefectKind { return a.defect[a.index(i, j)] }

// SetDefect converts cell (i, j) to the given defect state (the fault-
// injection capability).
func (a *AnalyticArray) SetDefect(i, j int, k device.DefectKind) {
	a.defect[a.index(i, j)] = k
	a.dirty()
}

// ProgramBatch applies a batch of cell pulses. With no parasitic
// network every pulse is delivered at its nominal voltage; the state
// update, cycle-noise draw order and cost accounting mirror the circuit
// backend exactly.
func (a *AnalyticArray) ProgramBatch(pulses []CellPulse, opts ProgramOptions) error {
	start := a.met.Start()
	pulsesBefore := a.stats.Pulses
	m, n := a.cfg.Rows, a.cfg.Cols
	for _, cp := range pulses {
		if cp.Row < 0 || cp.Row >= m || cp.Col < 0 || cp.Col >= n {
			return fmt.Errorf("hw: pulse addresses cell (%d,%d) outside %dx%d",
				cp.Row, cp.Col, m, n)
		}
		p := cp.Pulse
		if p.Width <= 0 || p.Voltage == 0 {
			continue
		}
		noise := 0.0
		if a.cfg.SigmaCycle > 0 {
			noise = a.src.Normal(0, a.cfg.SigmaCycle)
		}
		idx := cp.Row*n + cp.Col
		gBefore := a.conductance(idx)
		a.applyPulse(idx, p, noise)
		a.recordPulse(math.Abs(p.Voltage), p.Width, gBefore, a.conductance(idx))
	}
	a.stats.Batches++
	a.dirty()
	a.met.ObserveProgram(start, a.stats.Pulses-pulsesBefore)
	return nil
}

// applyPulse advances one cell's driven state, mirroring
// device.Memristor.Program minus the wear/cycle bookkeeping the
// analytic backend does not model.
func (a *AnalyticArray) applyPulse(idx int, p device.Pulse, noise float64) {
	if a.defect[idx] != device.DefectNone {
		return
	}
	model := a.cfg.Model
	before := a.x[idx]
	after := model.Advance(before, p)
	if noise != 0 && after != before {
		moved := after - before
		after = before + moved*(1+noise)
		if min := model.XMin(); after < min {
			after = min
		} else if max := model.XMax(); after > max {
			after = max
		}
	}
	a.x[idx] = after
}

func (a *AnalyticArray) recordPulse(delivered, width, gBefore, gAfter float64) {
	a.stats.Pulses++
	a.stats.PulseTime += width
	a.stats.Energy += delivered * delivered * width * (gBefore + gAfter) / 2
}

func (a *AnalyticArray) clampX(v float64) float64 {
	model := a.cfg.Model
	if v < model.XMin() {
		return model.XMin()
	}
	if v > model.XMax() {
		return model.XMax()
	}
	return v
}

// ProgramTargets programs the whole array to the target resistance
// matrix with one open-loop pulse per cell, pre-calculated from the
// switching model (the OLD flow). Targets outside [Ron, Roff] are
// clamped.
func (a *AnalyticArray) ProgramTargets(targets *mat.Matrix, opts ProgramOptions) error {
	if targets.Rows != a.cfg.Rows || targets.Cols != a.cfg.Cols {
		return errors.New("hw: target matrix dimension mismatch")
	}
	model := a.cfg.Model
	pulses := make([]CellPulse, 0, len(targets.Data))
	for i := 0; i < targets.Rows; i++ {
		for j := 0; j < targets.Cols; j++ {
			r := targets.At(i, j)
			if r <= 0 {
				return fmt.Errorf("hw: non-positive target resistance at (%d,%d)", i, j)
			}
			xt := a.clampX(math.Log(r))
			p := model.PulseForTarget(a.x[i*a.cfg.Cols+j], xt)
			if p.Width > 0 {
				pulses = append(pulses, CellPulse{Row: i, Col: j, Pulse: p})
			}
		}
	}
	return a.ProgramBatch(pulses, opts)
}

// ResetAll drives every healthy cell back to HRS instantly.
func (a *AnalyticArray) ResetAll() {
	xmax := a.cfg.Model.XMax()
	for i := range a.x {
		a.x[i] = xmax
	}
	a.dirty()
}

// Pretest implements AMP pre-testing on the analytic model: each cell
// is driven toward the target exactly as the circuit backend would
// (same pulse pre-calculation, same cycle-noise stream), sensed through
// the chain, and restored. Stuck-at cells show up naturally as extreme
// factors.
func (a *AnalyticArray) Pretest(target float64, senses int, chain *adc.SenseChain) (*mat.Matrix, error) {
	if target <= 0 {
		return nil, errors.New("hw: non-positive pretest target")
	}
	if senses < 1 {
		return nil, errors.New("hw: need at least one sense per cell")
	}
	if chain == nil {
		chain = adc.Ideal()
	}
	model := a.cfg.Model
	vread := 1.0
	factors := mat.NewMatrix(a.cfg.Rows, a.cfg.Cols)
	xt := math.Log(target)
	for idx := range a.x {
		savedX := a.x[idx]
		sum := 0.0
		for s := 0; s < senses; s++ {
			a.x[idx] = model.XMax()
			p := model.PulseForTarget(a.x[idx], xt)
			noise := 0.0
			if a.cfg.SigmaCycle > 0 {
				noise = a.src.Normal(0, a.cfg.SigmaCycle)
			}
			a.applyPulse(idx, p, noise)
			current := chain.Sense(vread * a.conductance(idx))
			if current <= 0 {
				current = 1e-12
			}
			sum += vread / current
		}
		meas := sum / float64(senses)
		factors.Data[idx] = meas / target
		a.x[idx] = savedX
	}
	a.dirty()
	return factors, nil
}

// ProgramVerify programs the array with the same per-cell
// program-and-verify controller the circuit backend runs (dead-reckoned
// state estimate, offset correction against the sensed resistance,
// bounded-retry patience guard) — only the plant underneath is the
// analytic model.
func (a *AnalyticArray) ProgramVerify(targets *mat.Matrix, opts VerifyOptions) (VerifyReport, error) {
	var rep VerifyReport
	if targets.Rows != a.cfg.Rows || targets.Cols != a.cfg.Cols {
		return rep, errors.New("hw: target matrix dimension mismatch")
	}
	vstart := a.met.Start()
	iters := 0
	opts = opts.WithDefaults()
	model := a.cfg.Model
	rep.Verdicts = make([]CellVerdict, a.cfg.Rows*a.cfg.Cols)
	senseLogR := func(idx int) float64 {
		current := opts.Chain.Sense(opts.Vread * a.conductance(idx))
		if current <= 0 {
			current = 1e-12 // below the sensing floor
		}
		return math.Log(opts.Vread / current)
	}
	for i := 0; i < targets.Rows; i++ {
		for j := 0; j < targets.Cols; j++ {
			rt := targets.At(i, j)
			if rt <= 0 {
				return VerifyReport{}, fmt.Errorf("hw: non-positive target resistance at (%d,%d)", i, j)
			}
			xt := a.clampX(math.Log(rt))
			idx := i*a.cfg.Cols + j
			xEst := a.x[idx]
			residual := math.Abs(senseLogR(idx) - xt)
			best := residual
			stall := 0
			verdict := VerdictConverged
			for iter := 0; iter < opts.MaxIter && residual > opts.TolLog; iter++ {
				iters++
				verdict = VerdictExhausted
				measured := senseLogR(idx)
				thetaHat := measured - xEst // estimated offset (e^theta)
				goal := a.clampX(xt - thetaHat)
				p := model.PulseForTarget(xEst, goal)
				if p.Width > 0 {
					if err := a.ProgramBatch([]CellPulse{{Row: i, Col: j, Pulse: p}}, opts.Program); err != nil {
						return VerifyReport{}, err
					}
				}
				xEst = goal
				residual = math.Abs(senseLogR(idx) - xt)
				// Bounded-retry guard: a round must shave at least 1% off
				// the best residual seen to count as progress.
				if residual < best*0.99 {
					best = residual
					stall = 0
				} else if opts.Patience >= 0 {
					stall++
					if stall >= opts.Patience {
						verdict = VerdictStuck
						break
					}
				}
			}
			if residual <= opts.TolLog {
				verdict = VerdictConverged
			}
			rep.Verdicts[idx] = verdict
			switch verdict {
			case VerdictConverged:
				rep.Converged++
			case VerdictExhausted:
				rep.Exhausted++
			default:
				rep.Stuck++
			}
			if residual > rep.Worst {
				rep.Worst = residual
			}
		}
	}
	a.met.ObserveVerify(vstart, targets.Rows*targets.Cols, iters)
	return rep, nil
}

// Stats returns the accumulated programming cost.
func (a *AnalyticArray) Stats() ProgramStats { return a.stats }

// ResetStats clears the cost counters.
func (a *AnalyticArray) ResetStats() { a.stats = ProgramStats{} }
