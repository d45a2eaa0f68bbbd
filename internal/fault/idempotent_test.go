package fault

import (
	"context"
	"testing"

	"vortex/internal/device"
	"vortex/internal/hw"
	"vortex/internal/xbar"
)

func totalPulses(arrays ...*xbar.Crossbar) int {
	p := 0
	for _, x := range arrays {
		p += x.Stats().Pulses
	}
	return p
}

// TestRepairSecondPassIsNoOp is the idempotency contract: a repeat
// repair that scans the same damage it already handled must not spend a
// single programming pulse beyond the scan itself.
func TestRepairSecondPassIsNoOp(t *testing.T) {
	// Moderate variation and the default verify tolerance, so every
	// mapped live cell converges and a readback finds them all in band.
	n := newNCS(t, 6, 3, 4, 0.1, 121)
	w := randWeights(t, 6, 3, 122)
	vopts := hw.VerifyOptions{TolLog: 0.05, MaxIter: 10}
	if _, err := n.ProgramWeightsVerify(w, vopts); err != nil {
		t.Fatal(err)
	}
	n.Pos.Cell(1, 0).Defect = device.DefectStuckLRS
	n.Neg.Cell(3, 2).Defect = device.DefectStuckHRS
	n.Invalidate()

	pol := Policy{Verify: vopts}
	out1, err := Repair(context.Background(), n, w, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !out1.Reprogrammed {
		t.Fatal("first repair did not reprogram despite fresh damage")
	}

	// Reference cost of a scan alone on this exact array state (the
	// scan programs cells to two probe targets and restores them).
	n.Pos.ResetStats()
	n.Neg.ResetStats()
	if _, err := Scan(context.Background(), n, pol.Scan); err != nil {
		t.Fatal(err)
	}
	scanPulses := totalPulses(n.Pos, n.Neg)

	n.Pos.ResetStats()
	n.Neg.ResetStats()
	out2, err := Repair(context.Background(), n, w, pol)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Reprogrammed {
		t.Fatal("second repair reprogrammed with no new damage")
	}
	if out2.Rounds != 1 {
		t.Fatalf("second repair ran %d rounds, want 1", out2.Rounds)
	}
	if got := totalPulses(n.Pos, n.Neg); got != scanPulses {
		t.Fatalf("second repair spent %d pulses, want the scan-only cost %d", got, scanPulses)
	}
	if !sameMap(out2.RowMap, out1.RowMap) {
		t.Fatal("no-op repair changed the row map")
	}
	if out2.Map.DeadCells() != 2 {
		t.Fatalf("second scan saw %d dead cells, want 2", out2.Map.DeadCells())
	}

	// New damage after the no-op pass re-arms the pipeline.
	n.Pos.Cell(4, 1).Defect = device.DefectStuckLRS
	n.Invalidate()
	out3, err := Repair(context.Background(), n, w, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !out3.Reprogrammed {
		t.Fatal("repair ignored new damage after a no-op pass")
	}
}
