package fault

import (
	"context"
	"testing"

	"vortex/internal/device"
	"vortex/internal/hw"
	"vortex/internal/ncs"
	"vortex/internal/rng"
	"vortex/internal/xbar"
)

// newNCS fabricates a test system: ideal sensing, no fabrication
// defects, moderate variation.
func newNCS(t *testing.T, inputs, outputs, redundancy int, sigma float64, seed uint64) *ncs.NCS {
	t.Helper()
	cfg := ncs.DefaultConfig(inputs, outputs)
	cfg.ADCBits = 0
	cfg.Sigma = sigma
	cfg.Redundancy = redundancy
	n, err := ncs.New(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{StuckRate: -0.1},
		{StuckRate: 1.5},
		{StuckLRSFrac: 2},
		{LineOpenRate: -1},
		{Endurance: -5},
		{EnduranceSigma: -1},
		{GlitchRate: 7},
		{GlitchAmp: -1e-6},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %+v validated", cfg)
		}
		if _, err := NewInjector(cfg, rng.New(1)); err == nil {
			t.Fatalf("NewInjector accepted %+v", cfg)
		}
	}
	if err := (Config{StuckRate: 0.1, LineOpenRate: 0.01, Endurance: 1e6}).Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewInjector(Config{}, nil); err == nil {
		t.Fatal("NewInjector accepted nil source")
	}
}

func defectSnapshot(n *ncs.NCS) []device.DefectKind {
	var s []device.DefectKind
	for _, x := range []*xbar.Crossbar{n.Pos, n.Neg} {
		for i := 0; i < x.Rows(); i++ {
			for j := 0; j < x.Cols(); j++ {
				s = append(s, x.Cell(i, j).Defect)
			}
		}
	}
	return s
}

func TestInjectDeterministicForSeed(t *testing.T) {
	cfg := Config{StuckRate: 0.05, LineOpenRate: 0.02}
	var reports [2]Report
	var snaps [2][]device.DefectKind
	for trial := 0; trial < 2; trial++ {
		n := newNCS(t, 20, 5, 4, 0.3, 99)
		in, err := NewInjector(cfg, rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := in.Inject(n)
		if err != nil {
			t.Fatal(err)
		}
		reports[trial] = rep
		snaps[trial] = defectSnapshot(n)
	}
	if reports[0] != reports[1] {
		t.Fatalf("reports differ across identical runs: %+v vs %+v", reports[0], reports[1])
	}
	for i := range snaps[0] {
		if snaps[0][i] != snaps[1][i] {
			t.Fatalf("cell %d defect differs across identical runs", i)
		}
	}
	if reports[0].Total() == 0 {
		t.Fatal("injection at these rates should kill something")
	}
}

func TestInjectStuckRateStatistics(t *testing.T) {
	// 2 arrays x 40 x 10 = 800 cells at rate 0.1: mean 80, sd ~8.5.
	n := newNCS(t, 30, 10, 10, 0, 7)
	in, err := NewInjector(Config{StuckRate: 0.1}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := in.Inject(n)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stuck < 50 || rep.Stuck > 115 {
		t.Fatalf("800 cells at stuck rate 0.1 killed %d, far from the mean 80", rep.Stuck)
	}
	if rep.LineOpens != 0 || rep.OpenCells != 0 || rep.WornOut != 0 {
		t.Fatalf("unrequested fault classes fired: %+v", rep)
	}
}

func TestLineOpensKillWholeLines(t *testing.T) {
	n := newNCS(t, 6, 4, 2, 0, 11)
	in, err := NewInjector(Config{LineOpenRate: 1}, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := in.Inject(n)
	if err != nil {
		t.Fatal(err)
	}
	// Rate 1 opens every row and column of both arrays.
	wantLines := 2 * (8 + 4)
	if rep.LineOpens != wantLines {
		t.Fatalf("opened %d lines, want %d", rep.LineOpens, wantLines)
	}
	if rep.OpenCells != 2*8*4 {
		t.Fatalf("killed %d cells, want every cell (%d)", rep.OpenCells, 2*8*4)
	}
	for _, d := range defectSnapshot(n) {
		if d != device.DefectOpen {
			t.Fatal("a cell on an opened line is not marked open")
		}
	}
	// An open array conducts essentially nothing.
	scores, err := n.Scores([]float64{1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scores {
		if s > 1e-3 || s < -1e-3 {
			t.Fatalf("open array still produces score %v", s)
		}
	}
}

func TestApplyWearCollapsesCycledDevices(t *testing.T) {
	n := newNCS(t, 4, 3, 0, 0, 21)
	in, err := NewInjector(Config{Endurance: 5, EnduranceSigma: 0.05}, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	// Nothing cycled yet: no wear.
	rep, err := in.ApplyWear(n)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WornOut != 0 {
		t.Fatalf("wear without cycling: %+v", rep)
	}
	// Hammer every device far past its endurance draw (~5 cycles +/- 5%).
	cells := 0
	for _, x := range []*xbar.Crossbar{n.Pos, n.Neg} {
		for i := 0; i < x.Rows(); i++ {
			for j := 0; j < x.Cols(); j++ {
				x.Cell(i, j).Cycles = 100
				cells++
			}
		}
	}
	rep, err = in.ApplyWear(n)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WornOut != cells {
		t.Fatalf("collapsed %d of %d hammered devices", rep.WornOut, cells)
	}
	for _, d := range defectSnapshot(n) {
		if d != device.DefectStuckLRS && d != device.DefectStuckHRS {
			t.Fatal("a collapsed device is not stuck")
		}
	}
	// A second pass finds nothing new.
	rep, err = in.ApplyWear(n)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WornOut != 0 {
		t.Fatalf("already-collapsed devices collapsed again: %+v", rep)
	}
}

func TestApplyWearPartialNarrowsWindow(t *testing.T) {
	n := newNCS(t, 3, 2, 0, 0, 31)
	in, err := NewInjector(Config{Endurance: 100, EnduranceSigma: 0.01}, rng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	n.Pos.Cell(0, 0).Cycles = 60 // wear ~0.6: narrowed, not collapsed
	rep, err := in.ApplyWear(n)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WornOut != 0 {
		t.Fatalf("partial wear collapsed a device: %+v", rep)
	}
	cell := n.Pos.Cell(0, 0)
	if cell.Wear < 0.5 || cell.Wear > 0.7 {
		t.Fatalf("wear %v, want ~0.6", cell.Wear)
	}
	if cell.Defect != device.DefectNone {
		t.Fatal("partially worn device marked defective")
	}
}

func TestScanFindsInjectedFaults(t *testing.T) {
	n := newNCS(t, 20, 5, 4, 0.5, 41)
	in, err := NewInjector(Config{StuckRate: 0.1}, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := in.Inject(n)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Scan(context.Background(), n, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// With ideal sensing and no switching noise, the responsiveness test
	// separates perfectly: dead cells are exactly the injected ones, even
	// at sigma 0.5 (the parametric factor cancels in the ratio).
	if got := m.DeadCells(); got != rep.Stuck {
		t.Fatalf("scan found %d dead cells, injector reports %d", got, rep.Stuck)
	}
	if m.SuspectCells() != 0 {
		t.Fatalf("clean-sense scan flagged %d suspects", m.SuspectCells())
	}
	if m.Rows != n.PhysRows() || m.Cols != 5 {
		t.Fatalf("map geometry %dx%d", m.Rows, m.Cols)
	}
	deadPos, deadNeg := m.DeadMasks()
	masked := 0
	for i := range deadPos.Data {
		if deadPos.Data[i] != 0 {
			masked++
		}
		if deadNeg.Data[i] != 0 {
			masked++
		}
	}
	if masked != rep.Stuck {
		t.Fatalf("dead masks mark %d cells, want %d", masked, rep.Stuck)
	}
}

func TestScanClassifiesWornAsSuspect(t *testing.T) {
	n := newNCS(t, 4, 3, 0, 0.3, 51)
	// Wear 0.8 leaves ~20% of the log window: the cell still moves, but
	// covers well under 60% of the commanded decade.
	n.Pos.Cell(1, 2).Wear = 0.8
	m, err := Scan(context.Background(), n, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if h := m.PosHealth[1*3+2]; h != Suspect {
		t.Fatalf("worn cell classified %v, want suspect", h)
	}
	if m.DeadCells() != 0 {
		t.Fatalf("scan killed %d healthy cells", m.DeadCells())
	}
	if m.SuspectCells() != 1 {
		t.Fatalf("suspects %d, want 1", m.SuspectCells())
	}
}

func TestScanIsNonDestructive(t *testing.T) {
	n := newNCS(t, 5, 3, 2, 0.4, 61)
	w := randWeights(t, 5, 3, 62)
	if _, err := n.ProgramWeightsVerify(w, hw.VerifyOptions{TolLog: 0.01, MaxIter: 8}); err != nil {
		t.Fatal(err)
	}
	before := n.DecodedWeights()
	if _, err := Scan(context.Background(), n, ScanOptions{}); err != nil {
		t.Fatal(err)
	}
	after := n.DecodedWeights()
	for i := range before.Data {
		if diff := before.Data[i] - after.Data[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("weight %d moved by %v during a scan", i, diff)
		}
	}
}

func TestGlitchChainCorruptsScans(t *testing.T) {
	n := newNCS(t, 8, 4, 0, 0.3, 71)
	in, err := NewInjector(Config{GlitchRate: 0.5}, rng.New(72))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Scan(context.Background(), n, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.DeadCells()+clean.SuspectCells() != 0 {
		t.Fatal("clean scan flagged healthy cells")
	}
	glitched, err := Scan(context.Background(), n, ScanOptions{Chain: in.GlitchChain(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if glitched.DeadCells()+glitched.SuspectCells() == 0 {
		t.Fatal("a heavily glitching sense chain corrupted no readings")
	}
	// The transients live in the sense path, not the array: a clean
	// re-scan exonerates every cell.
	rescan, err := Scan(context.Background(), n, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rescan.DeadCells()+rescan.SuspectCells() != 0 {
		t.Fatal("glitch transients left permanent damage")
	}
	// Zero glitch rate wraps to the base chain untouched.
	if got := (&Injector{cfg: Config{}}).GlitchChain(nil); got == nil {
		t.Fatal("nil chain")
	}
}
