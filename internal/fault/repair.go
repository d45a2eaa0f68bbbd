package fault

import (
	"context"
	"errors"
	"math"

	"vortex/internal/hw"
	"vortex/internal/mapping"
	"vortex/internal/mat"
	"vortex/internal/ncs"
	"vortex/internal/obs"
)

// Policy sets the knobs of the repair pipeline.
type Policy struct {
	// Scan configures the health scan of each round.
	Scan ScanOptions
	// Verify configures the program-and-verify pass of each round.
	Verify hw.VerifyOptions
	// MaxRounds bounds the scan -> remap -> reprogram attempts before
	// the pipeline gives up. Zero means the default 2; one round is the
	// plain detect-and-remap pass, further rounds catch cells that die
	// during reprogramming itself (wear-driven collapses).
	MaxRounds int
	// DeadPenalty is the per-unit-weight remap cost of a dead cell;
	// zero or negative selects mapping.DefaultDeadPenalty.
	DeadPenalty float64
	// MaxDeadFraction is the give-up threshold: if the scan finds more
	// than this fraction of all cells dead, the array is declared
	// degraded and no remap is attempted (the redundancy pool cannot
	// absorb the damage, and reprogramming would just burn write
	// cycles). Zero means the default 0.25.
	MaxDeadFraction float64
}

func (p Policy) withDefaults() Policy {
	if p.MaxRounds <= 0 {
		p.MaxRounds = 2
	}
	if p.MaxDeadFraction <= 0 {
		p.MaxDeadFraction = 0.25
	}
	return p
}

// Outcome reports what a repair pass did and where it ended.
type Outcome struct {
	// Rounds actually executed (>= 1).
	Rounds int
	// Map is the health map from the final scan.
	Map *Map
	// RowMap is the row mapping in force when the pipeline stopped.
	RowMap []int
	// Damage is the residual dead-cell decode error of the final mapping
	// (mapping.DeadCellDamage against the final scan, in weight units):
	// zero means every dead cell is either unmapped or pinned exactly
	// where its assigned weight wants it — the success criterion.
	Damage float64
	// FailedMapped counts mapped cells whose final program-and-verify
	// did not converge. Informational: it includes cells whose target
	// is honestly unreachable under their variation factor (which
	// remapping already minimized), so it is nonzero even on healthy
	// high-sigma arrays.
	FailedMapped int
	// Remapped is true if any round changed the row mapping.
	Remapped bool
	// Reprogrammed is true if any round spent programming pulses. A
	// repeat repair with no new damage skips the reprogram entirely
	// (idempotent fast path) and reports false: the scan found the
	// existing mapping already optimal and a readback found every live
	// mapped cell still inside the verify tolerance band.
	Reprogrammed bool
	// Degraded is true if the pipeline gave up: the dead fraction
	// exceeded Policy.MaxDeadFraction, or mapped verify failures
	// persisted after MaxRounds.
	Degraded bool
}

// Repair runs the detect -> fault-aware remap -> reprogram -> verify
// pipeline on the NCS for the given weight matrix: scan both arrays for
// dead cells, recompute the row assignment with mapping.OptimalFaultAware
// so high-salience weight rows avoid the casualties, reprogram through
// program-and-verify, and judge the round by the residual dead-cell
// damage of the new mapping. Rounds repeat while damage remains and is
// still improving, up to Policy.MaxRounds; the scan of a later round
// sees cells that died during the previous round's reprogramming.
//
// The pipeline gives up without remapping when a scan finds more than
// Policy.MaxDeadFraction of all cells dead, reporting Degraded instead
// of spending write cycles on an array the redundancy pool cannot save.
// The NCS is left programmed under the last attempted mapping either
// way, so a degraded system keeps operating as well as it can.
//
// Cancellation is honored between rounds and inside each round's scan:
// when ctx ends, Repair stops before the next hardware pass and returns
// ctx.Err(), leaving the NCS programmed under the last completed
// mapping.
func Repair(ctx context.Context, n *ncs.NCS, w *mat.Matrix, pol Policy) (*Outcome, error) {
	if n == nil {
		return nil, errors.New("fault: nil NCS")
	}
	if w == nil {
		return nil, errors.New("fault: nil weights")
	}
	if w.Rows != n.Config().Inputs || w.Cols != n.Config().Outputs {
		return nil, errors.New("fault: weight shape disagrees with NCS config")
	}
	pol = pol.withDefaults()
	ctx, sp := obs.StartSpanCtx(ctx, "fault.repair")
	reg := obs.Default()
	out := &Outcome{RowMap: n.RowMap()}
	prevDamage := math.Inf(1)
	defer func() {
		reg.Counter("fault.repair.rounds").Add(int64(out.Rounds))
		if out.Remapped {
			reg.Counter("fault.repair.remapped").Inc()
		}
		if out.Degraded {
			reg.Counter("fault.repair.degraded").Inc()
		}
		d := sp.End()
		obs.Logger().Debug("repair done", "rounds", out.Rounds, "damage", out.Damage,
			"remapped", out.Remapped, "degraded", out.Degraded, "elapsed", d)
	}()
	for out.Rounds < pol.MaxRounds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out.Rounds++
		m, err := Scan(ctx, n, pol.Scan)
		if err != nil {
			return nil, err
		}
		out.Map = m
		deadPos, deadNeg := m.DeadMasks()
		if m.DeadFraction() > pol.MaxDeadFraction {
			out.Degraded = true
			out.Damage = mapping.DeadCellDamage(w, deadPos, deadNeg, out.RowMap)
			return out, nil
		}
		rowMap, err := mapping.OptimalFaultAware(w, m.FPos, m.FNeg, deadPos, deadNeg, pol.DeadPenalty)
		if err != nil {
			return nil, err
		}
		if !sameMap(rowMap, out.RowMap) {
			out.Remapped = true
		}
		if !out.Reprogrammed && sameMap(rowMap, out.RowMap) &&
			readbackClean(n, w, m, rowMap, pol.Verify.WithDefaults().TolLog) {
			// Idempotent fast path: the scan found no damage the current
			// mapping doesn't already handle (the optimizer re-derived
			// the very map in force), and a readback shows every live
			// mapped cell still inside the verify tolerance band. A
			// repeat repair with no new damage is a cheap no-op — any
			// residual Damage is pinned dead cells reprogramming cannot
			// move, so a full reprogram would only burn write cycles.
			out.Damage = mapping.DeadCellDamage(w, deadPos, deadNeg, rowMap)
			return out, nil
		}
		if err := n.SetRowMap(rowMap); err != nil {
			return nil, err
		}
		out.RowMap = rowMap
		out.Reprogrammed = true
		vout, err := n.ProgramWeightsVerify(w, pol.Verify)
		if err != nil {
			return nil, err
		}
		out.FailedMapped = n.FailedMapped(vout)
		out.Damage = mapping.DeadCellDamage(w, deadPos, deadNeg, rowMap)
		if out.Damage == 0 {
			return out, nil
		}
		if out.Damage >= prevDamage {
			// A further round would rescan the same world and reach the
			// same assignment: no progress is possible.
			break
		}
		prevDamage = out.Damage
	}
	out.Degraded = true
	return out, nil
}

// readbackClean reports whether every live mapped cell of both arrays
// already sits within tolLog of the closest point programming could
// reach toward its target under rowMap — the program-and-verify
// acceptance predicate evaluated by readback alone, with no pulses
// spent. Each cell's target is first clamped to its reachable window
// [f*Ron, f*Roff] (f the variation factor the scan measured): a floor
// cell whose factor puts the off-state above the commanded off target
// is as programmed as it can ever be, and a reprogram would not move
// it. Dead cells are excluded for the same reason — the mapping has
// already dodged or pin-matched them. Suspect cells are NOT excluded:
// a weakly responding cell that has wandered off target is exactly
// what a repair round should pull back, so it defeats the fast path.
// Any readback failure conservatively reports false (reprogram).
func readbackClean(n *ncs.NCS, w *mat.Matrix, m *Map, rowMap []int, tolLog float64) bool {
	pos, neg, err := n.Codec().TargetResistances(w, rowMap, n.PhysRows())
	if err != nil {
		return false
	}
	model := n.Config().Model
	inBand := func(g, rt, f float64) bool {
		if g <= 0 || f <= 0 {
			return false
		}
		if lo := f * model.Ron; rt < lo {
			rt = lo
		}
		if hi := f * model.Roff; rt > hi {
			rt = hi
		}
		return math.Abs(math.Log(1/(g*rt))) <= tolLog
	}
	gp := n.Pos.Conductances()
	gn := n.Neg.Conductances()
	for _, q := range rowMap {
		for j := 0; j < m.Cols; j++ {
			idx := q*m.Cols + j
			if m.PosHealth[idx] != Dead && !inBand(gp.At(q, j), pos.At(q, j), m.FPos.At(q, j)) {
				return false
			}
			if m.NegHealth[idx] != Dead && !inBand(gn.At(q, j), neg.At(q, j), m.FNeg.At(q, j)) {
				return false
			}
		}
	}
	return true
}

func sameMap(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
