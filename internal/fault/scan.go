package fault

import (
	"context"
	"errors"
	"math"

	"vortex/internal/adc"
	"vortex/internal/mat"
	"vortex/internal/ncs"
	"vortex/internal/obs"
	"vortex/internal/xbar"
)

// CellHealth classifies one cell after a health scan.
type CellHealth uint8

const (
	// Healthy cells track programming targets normally.
	Healthy CellHealth = iota
	// Suspect cells respond, but weakly: a narrowing switching window,
	// a borderline device, or a scan reading corrupted by a transient
	// glitch. Suspects stay usable but are natural remap candidates.
	Suspect
	// Dead cells do not respond to programming at all: stuck-at
	// conversions, open lines, collapsed windows.
	Dead
)

// String implements fmt.Stringer.
func (h CellHealth) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	default:
		return "dead"
	}
}

// Map is the result of a health scan over a crossbar pair: a per-cell
// classification for both arrays plus the variation factors measured on
// the way (reusable by fault-aware remapping without a second pass).
type Map struct {
	Rows, Cols int          // physical array geometry
	PosHealth  []CellHealth // row-major, positive array
	NegHealth  []CellHealth // row-major, negative array
	FPos, FNeg *mat.Matrix  // measured variation factors e^theta
	// PosPin and NegPin estimate, per cell (row-major), the conductance
	// level the cell sits at in weight units: 0 = off (HRS/open), WMax =
	// fully on (LRS). For a dead cell this is where it is pinned — the
	// decode error it will contribute under any weight is |pin - carried|
	// — which is what makes fault-aware remapping able to exploit
	// casualties instead of only dodging them. Meaningful only for
	// non-healthy cells (a healthy cell moves when programmed).
	PosPin, NegPin []float64
}

func countHealth(h []CellHealth, want CellHealth) int {
	c := 0
	for _, v := range h {
		if v == want {
			c++
		}
	}
	return c
}

// DeadCells returns the number of dead cells across both arrays.
func (m *Map) DeadCells() int {
	return countHealth(m.PosHealth, Dead) + countHealth(m.NegHealth, Dead)
}

// SuspectCells returns the number of suspect cells across both arrays.
func (m *Map) SuspectCells() int {
	return countHealth(m.PosHealth, Suspect) + countHealth(m.NegHealth, Suspect)
}

// DeadFraction returns dead cells over all cells of both arrays.
func (m *Map) DeadFraction() float64 {
	return float64(m.DeadCells()) / float64(2*m.Rows*m.Cols)
}

// DeadMasks returns physRows x cols pin-encoded dead masks for each
// array, as mapping.OptimalFaultAware consumes them: 0 for a healthy or
// merely suspect cell, 1 + pin for a dead cell pinned at conductance
// level pin in weight units.
func (m *Map) DeadMasks() (pos, neg *mat.Matrix) {
	pos = mat.NewMatrix(m.Rows, m.Cols)
	neg = mat.NewMatrix(m.Rows, m.Cols)
	for i, h := range m.PosHealth {
		if h == Dead {
			pos.Data[i] = 1 + m.PosPin[i]
		}
	}
	for i, h := range m.NegHealth {
		if h == Dead {
			neg.Data[i] = 1 + m.NegPin[i]
		}
	}
	return pos, neg
}

// ScanOptions controls a health scan.
type ScanOptions struct {
	// TargetLo and TargetHi are the two programming targets of the
	// responsiveness test. Defaults 30 kOhm and 300 kOhm — a decade
	// apart, both inside the switching window and off its center so
	// wear-narrowed windows show up.
	TargetLo, TargetHi float64
	// Senses per cell and target; averaging suppresses switching
	// variation and transient glitches. Default 1 (the cheap scan).
	Senses int
	// Chain is the per-cell sense path; nil = ideal. Wrap with
	// Injector.GlitchChain to scan through a glitching sense chain.
	Chain *adc.SenseChain
	// DeadBelow and SuspectBelow classify the measured responsiveness
	// (achieved / expected resistance swing between the two targets,
	// 1 = perfect): below DeadBelow the cell is dead, below
	// SuspectBelow it is suspect. Defaults 0.25 and 0.6.
	DeadBelow, SuspectBelow float64
}

func (o ScanOptions) withDefaults() ScanOptions {
	if o.TargetLo <= 0 {
		o.TargetLo = 30e3
	}
	if o.TargetHi <= 0 {
		o.TargetHi = 300e3
	}
	if o.Senses <= 0 {
		o.Senses = 1
	}
	if o.DeadBelow <= 0 {
		o.DeadBelow = 0.25
	}
	if o.SuspectBelow <= 0 {
		o.SuspectBelow = 0.6
	}
	return o
}

// Scan runs the cheap health scan over both arrays of the NCS through
// the AMP pre-test cell-sense path: every cell is programmed toward two
// resistance targets a decade apart (against the usual HRS background,
// state restored afterwards) and sensed at each. The log-resistance
// swing between the two readings, relative to the commanded swing, is
// the cell's responsiveness — a variation-independent health signal,
// since a healthy device's parametric factor e^theta cancels in the
// ratio. Unresponsive cells (stuck, open, collapsed window) classify as
// Dead, weakly responsive ones (worn, marginal, or glitched readings)
// as Suspect.
//
// The geometric mean of the two per-target variation factors is
// returned per cell, so a scan doubles as the pre-test measurement for
// fault-aware remapping.
//
// Cancellation is honored between the per-array pre-test passes: when
// ctx ends mid-scan, Scan stops before the next hardware pass and
// returns ctx.Err().
func Scan(ctx context.Context, n *ncs.NCS, opts ScanOptions) (*Map, error) {
	if n == nil {
		return nil, errors.New("fault: nil NCS")
	}
	opts = opts.withDefaults()
	if opts.TargetHi <= opts.TargetLo {
		return nil, errors.New("fault: scan targets must satisfy TargetLo < TargetHi")
	}
	_, ssp := obs.StartSpanCtx(ctx, "fault.scan")
	defer ssp.End()
	obs.Default().Counter("fault.scans").Inc()
	m := &Map{Rows: n.PhysRows(), Cols: n.Config().Outputs}
	expected := math.Log(opts.TargetHi / opts.TargetLo)
	codec := n.Codec()
	scanArray := func(x *xbar.Crossbar) ([]CellHealth, []float64, *mat.Matrix, error) {
		if err := ctx.Err(); err != nil {
			return nil, nil, nil, err
		}
		fLo, err := x.Pretest(opts.TargetLo, opts.Senses, opts.Chain)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, nil, err
		}
		fHi, err := x.Pretest(opts.TargetHi, opts.Senses, opts.Chain)
		if err != nil {
			return nil, nil, nil, err
		}
		health := make([]CellHealth, m.Rows*m.Cols)
		pins := make([]float64, m.Rows*m.Cols)
		factors := mat.NewMatrix(m.Rows, m.Cols)
		for i := range health {
			rLo := fLo.Data[i] * opts.TargetLo
			rHi := fHi.Data[i] * opts.TargetHi
			resp := 0.0
			if rLo > 0 && rHi > 0 {
				resp = math.Log(rHi/rLo) / expected
			}
			switch {
			case resp < opts.DeadBelow:
				health[i] = Dead
			case resp < opts.SuspectBelow:
				health[i] = Suspect
			default:
				health[i] = Healthy
			}
			factors.Data[i] = math.Sqrt(fLo.Data[i] * fHi.Data[i])
			// Pin estimate: for an unresponsive cell both readings equal
			// its pinned resistance, so the geometric mean recovers it
			// exactly; convert to the conductance level in weight units.
			pinned := math.Sqrt(rLo * rHi)
			if pinned > 0 {
				g := 1 / pinned
				pin := codec.WMax * (g - codec.GOff) / (codec.GOn - codec.GOff)
				if pin < 0 {
					pin = 0
				} else if pin > codec.WMax {
					pin = codec.WMax
				}
				pins[i] = pin
			}
		}
		return health, pins, factors, nil
	}
	var err error
	if m.PosHealth, m.PosPin, m.FPos, err = scanArray(n.Pos); err != nil {
		return nil, err
	}
	if m.NegHealth, m.NegPin, m.FNeg, err = scanArray(n.Neg); err != nil {
		return nil, err
	}
	// The scan programs and restores every cell; any cached read map is
	// stale only if switching noise perturbed the restore, but
	// invalidating is cheap and always safe.
	n.Invalidate()
	return m, nil
}
