// Package fault models post-deployment hardware failures on a running
// NCS and the detect -> remap -> reprogram repair loop that keeps the
// system operational.
//
// The rest of the repository models fabrication-time imperfections:
// lognormal parametric variation and a static stuck-at defect rate drawn
// when a crossbar is built. Real arrays keep failing after programming —
// devices wear out with write cycling, convert to stuck states in the
// field, access lines crack open, sense amplifiers glitch. This package
// supplies:
//
//   - Injector: a seeded mutator applying a configurable mix of fault
//     classes to a live NCS, each class on its own RNG stream so runs
//     stay reproducible and the classes can be re-mixed without
//     perturbing each other;
//   - Scan (scan.go): a cheap two-target health scan over the AMP
//     pre-test cell-sense path, classifying every cell as healthy /
//     suspect / dead;
//   - Repair (repair.go): the detect -> fault-aware remap -> reprogram
//     -> verify pipeline with a give-up policy.
package fault

import (
	"errors"
	"math"

	"vortex/internal/adc"
	"vortex/internal/device"
	"vortex/internal/ncs"
	"vortex/internal/rng"
	"vortex/internal/xbar"
)

// Config sets the rates of each fault class an Injector applies. The
// zero value injects nothing.
type Config struct {
	// StuckRate is the per-cell probability, per Inject call, of a
	// sudden conversion to a stuck state (filament rupture or
	// over-formation during operation).
	StuckRate float64
	// StuckLRSFrac is the fraction of stuck conversions that land at
	// LRS rather than HRS. Zero means the default 0.5 split.
	StuckLRSFrac float64
	// LineOpenRate is the per-line probability, per Inject call, of a
	// whole row or column losing its access line (an open): every cell
	// on the line stops conducting.
	LineOpenRate float64
	// Endurance is the median number of full-bias write cycles at which
	// a device's switching window collapses. Zero disables wear.
	Endurance float64
	// EnduranceSigma is the lognormal spread of the per-device endurance
	// draw. Zero means the default 0.5.
	EnduranceSigma float64
	// GlitchRate is the probability that a single sense operation
	// through a GlitchChain-wrapped sense path is corrupted by a
	// transient (comparator bounce, coupling spike).
	GlitchRate float64
	// GlitchAmp is the amplitude of a glitch transient in amps of
	// input-referred current, applied with random sign. Zero means the
	// default 5e-5 A (half an on-state cell current at 1 V).
	GlitchAmp float64
}

func (c Config) withDefaults() Config {
	if c.StuckLRSFrac == 0 {
		c.StuckLRSFrac = 0.5
	}
	if c.EnduranceSigma == 0 {
		c.EnduranceSigma = 0.5
	}
	if c.GlitchAmp == 0 {
		c.GlitchAmp = 5e-5
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.StuckRate < 0 || c.StuckRate > 1 {
		return errors.New("fault: stuck rate out of [0,1]")
	}
	if c.StuckLRSFrac < 0 || c.StuckLRSFrac > 1 {
		return errors.New("fault: stuck-LRS fraction out of [0,1]")
	}
	if c.LineOpenRate < 0 || c.LineOpenRate > 1 {
		return errors.New("fault: line open rate out of [0,1]")
	}
	if c.Endurance < 0 {
		return errors.New("fault: negative endurance")
	}
	if c.EnduranceSigma < 0 {
		return errors.New("fault: negative endurance sigma")
	}
	if c.GlitchRate < 0 || c.GlitchRate > 1 {
		return errors.New("fault: glitch rate out of [0,1]")
	}
	if c.GlitchAmp < 0 {
		return errors.New("fault: negative glitch amplitude")
	}
	return nil
}

// Injector mutates live crossbar pairs with the configured fault mix.
// Each fault class draws from its own RNG stream split off the seed
// source, so (for example) raising the stuck rate does not reshuffle
// which lines break. An Injector is not safe for concurrent use; give
// each goroutine its own.
type Injector struct {
	cfg    Config
	stuck  *rng.Source
	lines  *rng.Source
	wear   *rng.Source
	glitch *rng.Source

	// Per-device endurance draws, lazily created per array the first
	// time ApplyWear sees it, so the wear stream stays deterministic in
	// the order arrays are first presented.
	endurance map[*xbar.Crossbar][]float64
}

// NewInjector builds an injector; src seeds the per-class streams.
func NewInjector(cfg Config, src *rng.Source) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, errors.New("fault: nil rng source")
	}
	return &Injector{
		cfg:       cfg.withDefaults(),
		stuck:     src.Split(),
		lines:     src.Split(),
		wear:      src.Split(),
		glitch:    src.Split(),
		endurance: make(map[*xbar.Crossbar][]float64),
	}, nil
}

// Config returns the injector's configuration (with defaults resolved).
func (in *Injector) Config() Config { return in.cfg }

// Report counts the damage done by one injection or wear pass.
type Report struct {
	Stuck     int // cells newly converted to stuck-at
	LineOpens int // row/column lines newly opened
	OpenCells int // cells newly killed by line opens
	WornOut   int // cells whose switching window newly collapsed
}

// Total returns the total number of cells newly killed.
func (r Report) Total() int { return r.Stuck + r.OpenCells + r.WornOut }

// Add accumulates other into r.
func (r *Report) Add(other Report) {
	r.Stuck += other.Stuck
	r.LineOpens += other.LineOpens
	r.OpenCells += other.OpenCells
	r.WornOut += other.WornOut
}

// Inject applies one shock event to the NCS: sudden stuck conversions at
// StuckRate per healthy cell and line opens at LineOpenRate per row and
// column, on both arrays. The cached read map is invalidated.
func (in *Injector) Inject(n *ncs.NCS) (Report, error) {
	if n == nil {
		return Report{}, errors.New("fault: nil NCS")
	}
	var rep Report
	for _, x := range []*xbar.Crossbar{n.Pos, n.Neg} {
		rep.Add(in.injectArray(x))
	}
	n.Invalidate()
	return rep, nil
}

// injectArray applies stuck conversions and line opens to one array.
func (in *Injector) injectArray(x *xbar.Crossbar) Report {
	var rep Report
	rows, cols := x.Rows(), x.Cols()
	if in.cfg.StuckRate > 0 {
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if !in.stuck.Bernoulli(in.cfg.StuckRate) {
					continue
				}
				if x.Defect(i, j) != device.DefectNone {
					continue
				}
				if in.stuck.Bernoulli(in.cfg.StuckLRSFrac) {
					x.SetDefect(i, j, device.DefectStuckLRS)
				} else {
					x.SetDefect(i, j, device.DefectStuckHRS)
				}
				rep.Stuck++
			}
		}
	}
	if in.cfg.LineOpenRate > 0 {
		for i := 0; i < rows; i++ {
			if in.lines.Bernoulli(in.cfg.LineOpenRate) {
				rep.LineOpens++
				rep.OpenCells += openLine(x, i, -1)
			}
		}
		for j := 0; j < cols; j++ {
			if in.lines.Bernoulli(in.cfg.LineOpenRate) {
				rep.LineOpens++
				rep.OpenCells += openLine(x, -1, j)
			}
		}
	}
	return rep
}

// openLine marks every healthy cell on row i (col == -1) or column j
// (row == -1) as open and returns the number of cells newly killed.
func openLine(x *xbar.Crossbar, i, j int) int {
	killed := 0
	mark := func(r, c int) {
		d := x.Defect(r, c)
		if d == device.DefectNone {
			killed++
		}
		if d != device.DefectOpen {
			x.SetDefect(r, c, device.DefectOpen)
		}
	}
	if j < 0 {
		for c := 0; c < x.Cols(); c++ {
			mark(i, c)
		}
		return killed
	}
	for r := 0; r < x.Rows(); r++ {
		mark(r, j)
	}
	return killed
}

// ApplyWear advances endurance wear on both arrays from each device's
// accumulated write-cycle count: wear = cycles / endurance_i, with
// endurance_i a per-device lognormal draw around Config.Endurance. A
// device whose window collapses (wear >= 1) converts to the stuck state
// nearest its current resistance. No-op when Endurance is zero.
func (in *Injector) ApplyWear(n *ncs.NCS) (Report, error) {
	if n == nil {
		return Report{}, errors.New("fault: nil NCS")
	}
	var rep Report
	if in.cfg.Endurance <= 0 {
		return rep, nil
	}
	model := n.Config().Model
	center := (model.XMin() + model.XMax()) / 2
	for _, x := range []*xbar.Crossbar{n.Pos, n.Neg} {
		end := in.enduranceFor(x)
		rows, cols := x.Rows(), x.Cols()
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				cell := x.Cell(i, j)
				if cell.Defect != device.DefectNone {
					continue
				}
				wear := float64(cell.Cycles) / end[i*cols+j]
				if wear > 1 {
					wear = 1
				}
				if wear <= cell.Wear {
					continue // wear is monotone
				}
				cell.Wear = wear
				if wear >= 1 {
					if cell.X <= center {
						cell.Defect = device.DefectStuckLRS
					} else {
						cell.Defect = device.DefectStuckHRS
					}
					rep.WornOut++
				}
			}
		}
	}
	n.Invalidate()
	return rep, nil
}

// enduranceFor returns (drawing on first use) the per-device endurance
// limits of an array.
func (in *Injector) enduranceFor(x *xbar.Crossbar) []float64 {
	if e, ok := in.endurance[x]; ok {
		return e
	}
	e := make([]float64, x.Rows()*x.Cols())
	mu := math.Log(in.cfg.Endurance)
	for i := range e {
		e[i] = math.Exp(in.wear.Normal(mu, in.cfg.EnduranceSigma))
		if e[i] < 1 {
			e[i] = 1
		}
	}
	in.endurance[x] = e
	return e
}

// GlitchChain wraps a sense chain so that each sense is, with
// probability GlitchRate, corrupted by a transient of amplitude
// GlitchAmp with random sign — the sense-chain fault class. Pass nil to
// wrap an ideal chain. The wrapped chain shares the injector's glitch
// RNG stream and therefore inherits the injector's non-concurrency.
func (in *Injector) GlitchChain(base *adc.SenseChain) *adc.SenseChain {
	if base == nil {
		base = adc.Ideal()
	}
	if in.cfg.GlitchRate <= 0 {
		return base
	}
	noise := func() float64 {
		if !in.glitch.Bernoulli(in.cfg.GlitchRate) {
			return 0
		}
		if in.glitch.Bernoulli(0.5) {
			return in.cfg.GlitchAmp
		}
		return -in.cfg.GlitchAmp
	}
	return adc.NewSenseChain(base.ADC, base.Gain, noise)
}
