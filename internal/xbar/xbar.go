// Package xbar assembles memristor devices into a crossbar array and
// implements its two operating modes:
//
//   - Read (compute): input voltages on the rows produce column currents,
//     y = x*W with W the conductance matrix in the ideal case (paper Sec.
//     2.2.1). With wire parasitics enabled W is the effective read map
//     the irdrop network solver extracts (EffectiveWeights).
//   - Program: the V/2 scheme of paper Sec. 2.2.2 — the selected cell sees
//     (possibly IR-degraded) full bias, cells sharing its row or column
//     see half bias and accumulate a small disturb through the device
//     model's sinh nonlinearity.
//
// The crossbar also provides the AMP pre-test primitive (program every
// cell against an HRS background and sense its resistance, Sec. 4.2.1).
//
// Crossbar is the repository's one array model: ncs holds its positive
// and negative arrays as *Crossbar, and fault injection, endurance wear
// and retention drift reach the cells through it directly. The shared
// vocabulary (configuration, pulses, verify options and reports, cost
// counters, metrics) lives in internal/hw.
package xbar

import (
	"errors"
	"fmt"
	"math"

	"vortex/internal/adc"
	"vortex/internal/device"
	"vortex/internal/hw"
	"vortex/internal/irdrop"
	"vortex/internal/mat"
	"vortex/internal/rng"
)

// Config describes a crossbar instance. It is the shared hardware-layer
// configuration type; see hw.Config for the field documentation.
type Config = hw.Config

// Crossbar is a fabricated array of memristors. Fabrication draws each
// device's parametric variation and defects from the configured
// distributions; the draw is deterministic in the provided rng source.
//
// A Crossbar is not safe for concurrent use: its conductance cache,
// solver workspace and cost counters are unguarded. Distinct crossbars
// share no mutable state, so Monte-Carlo loops give each trial its own.
type Crossbar struct {
	cfg   Config
	cells []device.Memristor
	src   *rng.Source
	stats ProgramStats
	aging *agingState
	met   *hw.Metrics

	// The conductance snapshot is cached and refreshed in place only
	// after cells may have changed, and the parasitic network (with its
	// solver workspace) is built once and kept for the crossbar's
	// lifetime, so the adjoint solves of EffectiveWeights start from the
	// previous converged node voltages and ProgramBatch's delivered-
	// voltage solves reuse their buffers.
	gcache *mat.Matrix     // cached observable conductances; nil until first use
	gdirty bool            // cells may have changed since gcache was filled
	net    *irdrop.Network // persistent network over gcache (RWire > 0)
}

// New fabricates a crossbar. All devices start at HRS.
func New(cfg Config, src *rng.Source) (*Crossbar, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, errors.New("xbar: nil rng source")
	}
	xb := &Crossbar{
		cfg:   cfg,
		cells: make([]device.Memristor, cfg.Rows*cfg.Cols),
		src:   src,
		met:   hw.CrossbarMetrics(),
	}
	for i := range xb.cells {
		theta := 0.0
		if cfg.Sigma > 0 {
			theta = src.Normal(0, cfg.Sigma)
		}
		xb.cells[i] = device.NewMemristor(cfg.Model, theta)
		if cfg.DefectRate > 0 && src.Bernoulli(cfg.DefectRate) {
			if src.Bernoulli(0.5) {
				xb.cells[i].Defect = device.DefectStuckLRS
			} else {
				xb.cells[i].Defect = device.DefectStuckHRS
			}
		}
	}
	return xb, nil
}

// Config returns the crossbar configuration.
func (x *Crossbar) Config() Config { return x.cfg }

// Rows returns the number of word lines.
func (x *Crossbar) Rows() int { return x.cfg.Rows }

// Cols returns the number of bit lines.
func (x *Crossbar) Cols() int { return x.cfg.Cols }

// Cell returns a pointer to the device at (i, j). Handing out the
// pointer means the caller may mutate the device behind the crossbar's
// back (wear modeling and white-box tests do), so every Cell call
// conservatively invalidates the cached conductance snapshot.
func (x *Crossbar) Cell(i, j int) *device.Memristor {
	if i < 0 || i >= x.cfg.Rows || j < 0 || j >= x.cfg.Cols {
		panic(fmt.Sprintf("xbar: cell (%d,%d) out of %dx%d", i, j, x.cfg.Rows, x.cfg.Cols))
	}
	x.gdirty = true
	return &x.cells[i*x.cfg.Cols+j]
}

// Defect returns the defect state of the device at (i, j).
func (x *Crossbar) Defect(i, j int) device.DefectKind { return x.Cell(i, j).Defect }

// SetDefect converts the device at (i, j) to the given defect state
// (what fault injection uses).
func (x *Crossbar) SetDefect(i, j int, k device.DefectKind) { x.Cell(i, j).Defect = k }

// conductances returns the cached observable conductance matrix,
// refreshing it in place when cells may have changed. The returned
// matrix is shared with the persistent parasitic network — callers must
// not hold or mutate it; Conductances clones it for the outside world.
func (x *Crossbar) conductances() *mat.Matrix {
	if x.gcache == nil {
		x.gcache = mat.NewMatrix(x.cfg.Rows, x.cfg.Cols)
		x.gdirty = true
	}
	if x.gdirty {
		model := x.cfg.Model
		for idx := range x.cells {
			x.gcache.Data[idx] = x.cells[idx].Conductance(model)
		}
		x.gdirty = false
	}
	return x.gcache
}

// network returns the persistent parasitic network over the cached
// conductances. The network's solver workspace — Thomas scratch, pooled
// solution buffers, the warm-start state and the Delivery buffers —
// survives across calls, so consecutive solves start from the previous
// converged node voltages.
func (x *Crossbar) network() *irdrop.Network {
	g := x.conductances() // refresh the shared matrix first
	if x.net == nil {
		x.net = irdrop.NewNetwork(g, x.cfg.RWire)
	}
	return x.net
}

// Conductances returns a snapshot of the observable conductance matrix
// (including parametric variation and defects). Callers own the
// returned matrix.
func (x *Crossbar) Conductances() *mat.Matrix {
	return x.conductances().Clone()
}

// Network returns a detached parasitic network view of the crossbar's
// current state. The network snapshots the conductances (the returned
// network never tracks later programming) and solves cold — use the
// crossbar's own EffectiveWeights for cached, warm-started solves.
func (x *Crossbar) Network() *irdrop.Network {
	return irdrop.NewNetwork(x.Conductances(), x.cfg.RWire)
}

// EffectiveWeights returns the exact linear read map of the current
// crossbar state (see irdrop.EffectiveWeights). For an ideal crossbar it
// is the conductance matrix itself.
func (x *Crossbar) EffectiveWeights() (*mat.Matrix, error) {
	if x.cfg.RWire == 0 {
		return x.Conductances(), nil
	}
	return x.network().EffectiveWeights()
}

// CellPulse addresses one device with a pre-computed pulse.
type CellPulse = hw.CellPulse

// ProgramOptions control a programming pass.
type ProgramOptions = hw.ProgramOptions

// ProgramBatch applies a batch of cell pulses under the V/2 scheme.
// Delivered voltages are degraded by the IR-drop network (solved against
// the conductance state at the start of the batch) unless wire resistance
// is zero. If the crossbar was configured with Disturb, every half-
// selected cell accumulates the corresponding sinh-suppressed drift once
// at the end of the batch.
func (x *Crossbar) ProgramBatch(pulses []CellPulse, opts ProgramOptions) error {
	start := x.met.Start()
	pulsesBefore := x.stats.Pulses
	m, n := x.cfg.Rows, x.cfg.Cols
	var del *irdrop.Delivery
	if x.cfg.RWire > 0 {
		// The persistent network's conductances are refreshed here and
		// then stay fixed for the batch, so one Delivery serves every
		// pulse and solves each touched row and column once.
		del = x.network().Delivery()
	}
	// Disturb accumulators: per-row and per-column half-select exposure
	// seconds, split by polarity, plus the per-cell self exposure to
	// subtract (a cell is never half-selected by its own pulse).
	var rowSet, rowReset, colSet, colReset, selfSet, selfReset []float64
	if x.cfg.Disturb {
		rowSet = make([]float64, m)
		rowReset = make([]float64, m)
		colSet = make([]float64, n)
		colReset = make([]float64, n)
		selfSet = make([]float64, m*n)
		selfReset = make([]float64, m*n)
	}
	for _, cp := range pulses {
		if cp.Row < 0 || cp.Row >= m || cp.Col < 0 || cp.Col >= n {
			return fmt.Errorf("xbar: pulse addresses cell (%d,%d) outside %dx%d",
				cp.Row, cp.Col, m, n)
		}
		p := cp.Pulse
		if p.Width <= 0 || p.Voltage == 0 {
			continue
		}
		delivered := p.Voltage
		if del != nil {
			dv := del.Voltage(cp.Row, cp.Col, math.Abs(p.Voltage))
			if p.Voltage < 0 {
				dv = -dv
			}
			if opts.CompensateIR {
				// Stretch the width so the achieved delta-x matches the
				// nominal pre-calculation: w' = w * rate(V)/rate(Vdeliv).
				rNom := x.cfg.Model.Rate(p.Voltage)
				rDel := x.cfg.Model.Rate(dv)
				if rDel <= 0 {
					return fmt.Errorf("xbar: zero delivered switching rate at (%d,%d)", cp.Row, cp.Col)
				}
				p.Width *= rNom / rDel
			}
			delivered = dv
		}
		noise := 0.0
		if x.cfg.SigmaCycle > 0 {
			noise = x.src.Normal(0, x.cfg.SigmaCycle)
		}
		cell := x.Cell(cp.Row, cp.Col)
		gBefore := cell.Conductance(x.cfg.Model)
		cell.Program(x.cfg.Model,
			device.Pulse{Voltage: delivered, Width: p.Width}, noise)
		x.recordPulse(math.Abs(delivered), p.Width, gBefore, cell.Conductance(x.cfg.Model))
		if x.cfg.Disturb {
			if p.Voltage > 0 {
				rowSet[cp.Row] += p.Width
				colSet[cp.Col] += p.Width
				selfSet[cp.Row*n+cp.Col] += p.Width
			} else {
				rowReset[cp.Row] += p.Width
				colReset[cp.Col] += p.Width
				selfReset[cp.Row*n+cp.Col] += p.Width
			}
		}
	}
	x.stats.Batches++
	if x.cfg.Disturb {
		x.applyDisturb(rowSet, rowReset, colSet, colReset, selfSet, selfReset)
	}
	x.gdirty = true
	x.met.ObserveProgram(start, x.stats.Pulses-pulsesBefore)
	return nil
}

// applyDisturb applies accumulated half-select exposure: cell (i,j) was
// half-selected for every pulse on row i or column j that did not target
// it, at half the programming voltage.
func (x *Crossbar) applyDisturb(rowSet, rowReset, colSet, colReset, selfSet, selfReset []float64) {
	m, n := x.cfg.Rows, x.cfg.Cols
	half := x.cfg.Model.Vprog / 2
	var exposure float64
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			idx := i*n + j
			set := rowSet[i] + colSet[j] - 2*selfSet[idx]
			reset := rowReset[i] + colReset[j] - 2*selfReset[idx]
			cell := &x.cells[idx]
			if set > 0 {
				cell.Program(x.cfg.Model, device.Pulse{Voltage: half, Width: set}, 0)
				exposure += set
			}
			if reset > 0 {
				cell.Program(x.cfg.Model, device.Pulse{Voltage: -half, Width: reset}, 0)
				exposure += reset
			}
		}
	}
	x.recordHalfSelect(exposure)
}

// ProgramTargets programs the whole array to the target resistance matrix
// (in ohms) with one open-loop pulse per cell, pre-calculated from the
// switching model (the OLD flow). Targets outside [Ron, Roff] are clamped.
func (x *Crossbar) ProgramTargets(targets *mat.Matrix, opts ProgramOptions) error {
	if targets.Rows != x.cfg.Rows || targets.Cols != x.cfg.Cols {
		return errors.New("xbar: target matrix dimension mismatch")
	}
	model := x.cfg.Model
	pulses := make([]CellPulse, 0, len(targets.Data))
	for i := 0; i < targets.Rows; i++ {
		for j := 0; j < targets.Cols; j++ {
			r := targets.At(i, j)
			if r <= 0 {
				return fmt.Errorf("xbar: non-positive target resistance at (%d,%d)", i, j)
			}
			xt := math.Log(r)
			if xt < model.XMin() {
				xt = model.XMin()
			} else if xt > model.XMax() {
				xt = model.XMax()
			}
			p := model.PulseForTarget(x.Cell(i, j).X, xt)
			if p.Width > 0 {
				pulses = append(pulses, CellPulse{Row: i, Col: j, Pulse: p})
			}
		}
	}
	return x.ProgramBatch(pulses, opts)
}

// ResetAll drives every healthy cell back to HRS instantly (a long RESET
// pulse; modeled as a direct state assignment, bypassing parasitics, the
// way an erase cycle with generous margins behaves).
func (x *Crossbar) ResetAll() {
	for i := range x.cells {
		x.cells[i].X = x.cfg.Model.XMax()
	}
	x.gdirty = true
}

// Pretest implements AMP pre-testing (paper Sec. 4.2.1): every device is
// programmed to the given target resistance against an all-HRS background
// (minimizing IR-drop and sneak interference), sensed senses times
// through the provided sense chain (averaging suppresses switching
// variation), and restored to its prior state. It returns the estimated per-cell
// variation factor e^theta (measured resistance / target) as a matrix.
//
// Stuck-at cells show up naturally as extreme factors.
func (x *Crossbar) Pretest(target float64, senses int, chain *adc.SenseChain) (*mat.Matrix, error) {
	if target <= 0 {
		return nil, errors.New("xbar: non-positive pretest target")
	}
	if senses < 1 {
		return nil, errors.New("xbar: need at least one sense per cell")
	}
	if chain == nil {
		chain = adc.Ideal()
	}
	model := x.cfg.Model
	vread := 1.0
	factors := mat.NewMatrix(x.cfg.Rows, x.cfg.Cols)
	xt := math.Log(target)
	for i := 0; i < x.cfg.Rows; i++ {
		for j := 0; j < x.cfg.Cols; j++ {
			cell := x.Cell(i, j)
			savedX := cell.X
			// Program toward the target; repeat per sense to average
			// switching variation, as the paper suggests.
			sum := 0.0
			for s := 0; s < senses; s++ {
				cell.X = model.XMax()
				p := model.PulseForTarget(cell.X, xt)
				noise := 0.0
				if x.cfg.SigmaCycle > 0 {
					noise = x.src.Normal(0, x.cfg.SigmaCycle)
				}
				// HRS background keeps IR-drop negligible (validated in
				// the irdrop tests), so the nominal voltage is delivered.
				cell.Program(model, p, noise)
				// Sense: drive the row at vread, measure the cell current
				// through the chain.
				current := chain.Sense(vread * cell.Conductance(model))
				if current <= 0 {
					// Below ADC floor: resistance saturates at the chain's
					// minimum observable; report the worst-case factor.
					current = 1e-12
				}
				sum += vread / current
			}
			meas := sum / float64(senses)
			factors.Set(i, j, meas/target)
			cell.X = savedX
		}
	}
	return factors, nil
}
