package fault

import (
	"context"
	"testing"

	"vortex/internal/device"
	"vortex/internal/hw"
	"vortex/internal/mat"
	"vortex/internal/ncs"
	"vortex/internal/rng"
)

func randWeights(t *testing.T, rows, cols int, seed uint64) *mat.Matrix {
	t.Helper()
	src := rng.New(seed)
	w := mat.NewMatrix(rows, cols)
	for i := range w.Data {
		// Keep magnitudes off zero so every cell matters to the decode.
		w.Data[i] = 0.2 + 0.6*src.Float64()
		if src.Bernoulli(0.5) {
			w.Data[i] = -w.Data[i]
		}
	}
	return w
}

func decodeError(n *ncs.NCS, want *mat.Matrix) float64 {
	got := n.DecodedWeights()
	var e float64
	for i := range want.Data {
		d := got.Data[i] - want.Data[i]
		if d < 0 {
			d = -d
		}
		e += d
	}
	return e / float64(len(want.Data))
}

func TestRepairRecoversFromStuckCells(t *testing.T) {
	n := newNCS(t, 6, 3, 4, 0.3, 81)
	w := randWeights(t, 6, 3, 82)
	vopts := hw.VerifyOptions{TolLog: 0.01, MaxIter: 8}
	if _, err := n.ProgramWeightsVerify(w, vopts); err != nil {
		t.Fatal(err)
	}
	healthyErr := decodeError(n, w)

	// Kill cells on two mapped physical rows (identity map covers 0..5).
	n.Pos.Cell(0, 1).Defect = device.DefectStuckLRS
	n.Neg.Cell(2, 0).Defect = device.DefectStuckHRS
	n.Pos.Cell(2, 2).Defect = device.DefectStuckLRS
	n.Invalidate()
	faultedErr := decodeError(n, w)
	if faultedErr < 2*healthyErr {
		t.Fatalf("stuck cells barely hurt: %.4f vs healthy %.4f", faultedErr, healthyErr)
	}

	out, err := Repair(context.Background(), n, w, Policy{Verify: vopts})
	if err != nil {
		t.Fatal(err)
	}
	if out.Degraded {
		t.Fatalf("repair gave up: %+v", out)
	}
	if !out.Remapped {
		t.Fatal("repair did not remap around dead rows")
	}
	// With 4 spare rows the optimizer dodges or pin-matches the three
	// casualties; either way the residual decode error attributable to
	// them must be a small fraction of one weight.
	if out.Damage > 0.3 {
		t.Fatalf("weights still on hostile dead cells after repair: damage %v", out.Damage)
	}
	if out.Map.DeadCells() != 3 {
		t.Fatalf("final scan saw %d dead cells, want 3", out.Map.DeadCells())
	}
	repairedErr := decodeError(n, w)
	if repairedErr > 1.5*healthyErr+0.01 {
		t.Fatalf("repair left decode error %.4f (healthy %.4f, faulted %.4f)",
			repairedErr, healthyErr, faultedErr)
	}
}

func TestRepairGivesUpWhenOverwhelmed(t *testing.T) {
	n := newNCS(t, 4, 2, 1, 0.2, 91)
	w := randWeights(t, 4, 2, 92)
	before := n.RowMap()
	n.Pos.Cell(1, 0).Defect = device.DefectStuckLRS
	n.Invalidate()
	out, err := Repair(context.Background(), n, w, Policy{
		Verify:          hw.VerifyOptions{TolLog: 0.01, MaxIter: 6},
		MaxDeadFraction: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded {
		t.Fatal("repair did not give up past MaxDeadFraction")
	}
	if out.Remapped {
		t.Fatal("give-up path remapped anyway")
	}
	after := n.RowMap()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("give-up path changed the row map")
		}
	}
}

func TestRepairReportsPersistentFailures(t *testing.T) {
	// No redundancy: a dead cell on a mapped row cannot be dodged, so the
	// pipeline must exhaust its rounds and report degraded operation
	// with the failure count — not claim success.
	n := newNCS(t, 4, 2, 0, 0.2, 101)
	w := randWeights(t, 4, 2, 102)
	n.Pos.Cell(2, 1).Defect = device.DefectStuckLRS
	n.Invalidate()
	out, err := Repair(context.Background(), n, w, Policy{Verify: hw.VerifyOptions{TolLog: 0.01, MaxIter: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded {
		t.Fatal("unfixable fault not reported as degraded")
	}
	if out.Rounds != 2 {
		t.Fatalf("ran %d rounds, want the default 2", out.Rounds)
	}
	if out.FailedMapped == 0 {
		t.Fatal("no failed cells reported despite a stuck mapped cell")
	}
	if out.Damage == 0 {
		t.Fatal("damage not reported despite a nonzero weight on a dead cell")
	}
}

func TestRepairValidation(t *testing.T) {
	n := newNCS(t, 3, 2, 0, 0, 111)
	if _, err := Repair(context.Background(), nil, mat.NewMatrix(3, 2), Policy{}); err == nil {
		t.Fatal("nil NCS accepted")
	}
	if _, err := Repair(context.Background(), n, nil, Policy{}); err == nil {
		t.Fatal("nil weights accepted")
	}
	if _, err := Repair(context.Background(), n, mat.NewMatrix(2, 2), Policy{}); err == nil {
		t.Fatal("wrong-shape weights accepted")
	}
}
