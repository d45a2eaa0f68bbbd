// Package hw is the hardware vocabulary shared by the crossbar
// (internal/xbar) and everything above it (ncs, train, core, fault,
// experiment): array configuration, programming pulses and options,
// verify options and reports, programming-cost counters, and the
// metrics bundle every crossbar records into.
//
// The one array model is xbar.Crossbar: per-cell device objects with
// the full switching model, the IR-drop parasitic network, half-select
// disturb, retention drift and endurance wear.
package hw

import (
	"errors"
	"fmt"

	"vortex/internal/adc"
	"vortex/internal/device"
)

// Config describes a crossbar array instance.
type Config struct {
	Rows, Cols int
	Model      device.SwitchModel
	RWire      float64 // per-segment wire resistance [Ohm]; 0 = ideal wires
	Sigma      float64 // lognormal parametric variation (device-to-device)
	SigmaCycle float64 // cycle-to-cycle switching variation; usually << Sigma
	DefectRate float64 // probability of a stuck-at cell (split evenly LRS/HRS)
	Disturb    bool    // model half-select disturb during programming
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Rows <= 0 || c.Cols <= 0 {
		return errors.New("hw: non-positive dimensions")
	}
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.RWire < 0 {
		return errors.New("hw: negative wire resistance")
	}
	if c.Sigma < 0 || c.SigmaCycle < 0 {
		return errors.New("hw: negative variation sigma")
	}
	if c.DefectRate < 0 || c.DefectRate >= 1 {
		return errors.New("hw: defect rate out of [0,1)")
	}
	return nil
}

// CellPulse addresses one device with a pre-computed pulse.
type CellPulse struct {
	Row, Col int
	Pulse    device.Pulse
}

// ProgramOptions control a programming pass.
type ProgramOptions struct {
	// CompensateIR pre-solves the delivered voltage at each selected cell
	// and stretches the pulse width so the nominal target is hit despite
	// IR-drop (the compensation technique of paper reference [10], which
	// OLD and Vortex use). Without it the raw pulse is applied at the
	// degraded voltage — the CLD situation, where Eq. (2)'s beta and D
	// effects emerge. It has no effect when RWire = 0.
	CompensateIR bool
}

// VerifyOptions controls program-and-verify array programming.
type VerifyOptions struct {
	Program ProgramOptions  // options for the underlying pulses
	Chain   *adc.SenseChain // per-cell sense path; nil = ideal
	Vread   float64         // cell read voltage during verify; default 1 V
	MaxIter int             // correction rounds per cell; default 5
	TolLog  float64         // acceptance band on |ln(R/Rt)|; default 0.05

	// Patience bounds the retries spent on a cell that is not getting
	// closer to its target: after this many consecutive non-improving
	// correction rounds the cell is abandoned with VerdictStuck instead
	// of burning the rest of the MaxIter budget. Stuck-at, open and
	// wear-collapsed devices exit after Patience rounds; oscillating
	// cells (e.g. at a coarse sense ADC's quantization floor) likewise.
	// Default 2; negative disables the guard.
	Patience int
}

// WithDefaults resolves the zero values to the documented defaults.
func (o VerifyOptions) WithDefaults() VerifyOptions {
	if o.Chain == nil {
		o.Chain = adc.Ideal()
	}
	if o.Vread <= 0 {
		o.Vread = 1
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 5
	}
	if o.TolLog <= 0 {
		o.TolLog = 0.05
	}
	if o.Patience == 0 {
		o.Patience = 2
	}
	return o
}

// CellVerdict classifies the outcome of the per-cell verify loop.
type CellVerdict uint8

const (
	// VerdictConverged means the cell landed within TolLog of its target.
	VerdictConverged CellVerdict = iota
	// VerdictExhausted means the cell spent the full MaxIter budget while
	// still improving, but ended outside the tolerance band.
	VerdictExhausted
	// VerdictStuck means the loop gave up early: Patience consecutive
	// correction rounds produced no residual improvement (a stuck-at,
	// open or wear-collapsed device, or an unreachable target).
	VerdictStuck
)

// String implements fmt.Stringer.
func (v CellVerdict) String() string {
	switch v {
	case VerdictConverged:
		return "converged"
	case VerdictExhausted:
		return "exhausted"
	case VerdictStuck:
		return "stuck"
	default:
		return fmt.Sprintf("CellVerdict(%d)", uint8(v))
	}
}

// VerifyReport summarizes a ProgramVerify pass. Worst is the largest
// remaining |ln(Robs/Rt)| across the array; the counters partition the
// cells by verdict so callers can distinguish "everything converged"
// from "some cells gave up" — the distinction the repair pipeline keys
// on. Verdicts holds the per-cell outcome in row-major order.
type VerifyReport struct {
	Worst     float64       // worst remaining |ln(Robs/Rt)|
	Converged int           // cells within TolLog
	Exhausted int           // cells that ran out of MaxIter
	Stuck     int           // cells abandoned early by the Patience guard
	Verdicts  []CellVerdict // per-cell verdicts, row-major
}

// Failed returns the number of cells that did not converge.
func (r VerifyReport) Failed() int { return r.Exhausted + r.Stuck }

// Merge folds another report into this one (used to combine the
// positive and negative arrays of a crossbar pair). Verdict slices are
// not concatenated — per-cell geometry differs between arrays — so
// Merge keeps only the counters and the worst residual.
func (r *VerifyReport) Merge(other VerifyReport) {
	if other.Worst > r.Worst {
		r.Worst = other.Worst
	}
	r.Converged += other.Converged
	r.Exhausted += other.Exhausted
	r.Stuck += other.Stuck
}

// ProgramStats accumulates the hardware cost of programming operations on
// an array — the quantities behind the paper's motivation that OLD
// needs one cheap pass while CLD pays for many program-and-sense
// iterations (Sec. 1, Sec. 4).
type ProgramStats struct {
	Batches    int     // programming batches issued
	Pulses     int     // individual cell pulses applied
	PulseTime  float64 // summed pulse widths [s]
	Energy     float64 // estimated selected-cell programming energy [J]
	HalfSelect float64 // summed half-select exposure [cell*s], when disturb is modeled
}

// Add accumulates other into s.
func (s *ProgramStats) Add(other ProgramStats) {
	s.Batches += other.Batches
	s.Pulses += other.Pulses
	s.PulseTime += other.PulseTime
	s.Energy += other.Energy
	s.HalfSelect += other.HalfSelect
}

// Backend once selected between two array simulation backends.
//
// Deprecated: xbar.Crossbar is the only array model and nothing reads a
// Backend. The type and its constants stay only because
// perfbench/serve.go:59 and perfbench/layers.go:224 still set
// hw.Analytic; they go once those two lines do.
type Backend int

const (
	// Circuit is the zero Backend.
	//
	// Deprecated: see Backend.
	Circuit Backend = iota
	// Analytic is a no-op: it builds the same xbar.Crossbar as Circuit.
	//
	// Deprecated: see Backend; set by perfbench/serve.go:59 and
	// perfbench/layers.go:224.
	Analytic
)
