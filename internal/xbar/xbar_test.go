package xbar

import (
	"math"
	"testing"

	"vortex/internal/adc"
	"vortex/internal/device"
	"vortex/internal/mat"
	"vortex/internal/rng"
	"vortex/internal/stats"
)

func baseConfig(rows, cols int) Config {
	return Config{
		Rows:  rows,
		Cols:  cols,
		Model: device.DefaultSwitchModel(),
	}
}

func mustNew(t *testing.T, cfg Config, seed uint64) *Crossbar {
	t.Helper()
	xb, err := New(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return xb
}

func TestConfigValidation(t *testing.T) {
	good := baseConfig(4, 4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Rows: 0, Cols: 4, Model: device.DefaultSwitchModel()},
		{Rows: 4, Cols: -1, Model: device.DefaultSwitchModel()},
		{Rows: 4, Cols: 4}, // invalid model
		{Rows: 4, Cols: 4, Model: device.DefaultSwitchModel(), RWire: -2},          //
		{Rows: 4, Cols: 4, Model: device.DefaultSwitchModel(), Sigma: -0.1},        //
		{Rows: 4, Cols: 4, Model: device.DefaultSwitchModel(), DefectRate: 1.0},    //
		{Rows: 4, Cols: 4, Model: device.DefaultSwitchModel(), SigmaCycle: -1e-12}, //
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if _, err := New(good, nil); err == nil {
		t.Fatal("expected error for nil rng")
	}
}

func TestFabricationDeterministic(t *testing.T) {
	cfg := baseConfig(10, 10)
	cfg.Sigma = 0.5
	cfg.DefectRate = 0.05
	a := mustNew(t, cfg, 77)
	b := mustNew(t, cfg, 77)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			ca, cb := a.Cell(i, j), b.Cell(i, j)
			if ca.Theta != cb.Theta || ca.Defect != cb.Defect {
				t.Fatal("same seed produced different fabrication")
			}
		}
	}
}

func TestAllCellsStartHRS(t *testing.T) {
	cfg := baseConfig(5, 5)
	xb := mustNew(t, cfg, 1)
	g := xb.Conductances()
	for _, v := range g.Data {
		if math.Abs(1/v-device.RoffNominal)/device.RoffNominal > 1e-9 {
			t.Fatalf("fresh cell conductance %v not at HRS", v)
		}
	}
}

func TestProgramTargetsNoVariationExact(t *testing.T) {
	cfg := baseConfig(8, 4)
	xb := mustNew(t, cfg, 9)
	targets := mat.NewMatrix(8, 4)
	src := rng.New(10)
	for i := range targets.Data {
		targets.Data[i] = 10e3 + src.Float64()*(1e6-10e3)
	}
	if err := xb.ProgramTargets(targets, ProgramOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 4; j++ {
			r := xb.Cell(i, j).Resistance(cfg.Model)
			want := targets.At(i, j)
			if math.Abs(r-want)/want > 1e-9 {
				t.Fatalf("cell (%d,%d) R = %v, want %v", i, j, r, want)
			}
		}
	}
}

func TestProgramTargetsWithVariationLognormal(t *testing.T) {
	cfg := baseConfig(40, 25)
	cfg.Sigma = 0.5
	xb := mustNew(t, cfg, 11)
	targets := mat.NewMatrix(40, 25)
	targets.Fill(50e3)
	if err := xb.ProgramTargets(targets, ProgramOptions{}); err != nil {
		t.Fatal(err)
	}
	rs := make([]float64, 0, 1000)
	for i := 0; i < 40; i++ {
		for j := 0; j < 25; j++ {
			rs = append(rs, xb.Cell(i, j).Resistance(cfg.Model))
		}
	}
	mu, sd, err := stats.FitLogNormal(rs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mu-math.Log(50e3)) > 0.05 {
		t.Fatalf("log-mean %v, want %v", mu, math.Log(50e3))
	}
	if math.Abs(sd-0.5) > 0.06 {
		t.Fatalf("log-std %v, want 0.5", sd)
	}
}

func TestProgramTargetsClampsAndRejects(t *testing.T) {
	cfg := baseConfig(2, 2)
	xb := mustNew(t, cfg, 2)
	targets := mat.NewMatrix(2, 2)
	targets.Fill(1) // below Ron: clamps to Ron
	if err := xb.ProgramTargets(targets, ProgramOptions{}); err != nil {
		t.Fatal(err)
	}
	if r := xb.Cell(0, 0).Resistance(cfg.Model); math.Abs(r-device.RonNominal) > 1 {
		t.Fatalf("R = %v, want clamp at Ron", r)
	}
	targets.Set(0, 0, -5)
	if err := xb.ProgramTargets(targets, ProgramOptions{}); err == nil {
		t.Fatal("expected error for negative target")
	}
	wrong := mat.NewMatrix(3, 2)
	if err := xb.ProgramTargets(wrong, ProgramOptions{}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestProgramBatchOutOfRange(t *testing.T) {
	xb := mustNew(t, baseConfig(2, 2), 3)
	err := xb.ProgramBatch([]CellPulse{{Row: 5, Col: 0, Pulse: device.Pulse{Voltage: 2.9, Width: 1e-9}}}, ProgramOptions{})
	if err == nil {
		t.Fatal("expected error for out-of-range pulse")
	}
}

func TestIRDropUnderprogramsWithoutCompensation(t *testing.T) {
	// Worst case: a large all-LRS-bound column with wire resistance. The
	// top cells must land short of the target without compensation and on
	// target with it.
	cfg := baseConfig(128, 4)
	cfg.RWire = 2.5
	target := 20e3

	// First drive everything to LRS-ish to create the loading.
	setup := func(seed uint64) *Crossbar {
		xb := mustNew(t, cfg, seed)
		for i := 0; i < cfg.Rows; i++ {
			for j := 0; j < cfg.Cols; j++ {
				xb.Cell(i, j).SetState(cfg.Model, device.RonNominal)
			}
		}
		return xb
	}

	targets := mat.NewMatrix(cfg.Rows, cfg.Cols)
	targets.Fill(target)

	raw := setup(4)
	// Move cells back to HRS then program down to target open loop.
	raw.ResetAll()
	// Re-create LRS loading for the network by pre-setting half of it.
	for i := 0; i < cfg.Rows; i++ {
		for j := 0; j < cfg.Cols; j++ {
			raw.Cell(i, j).SetState(cfg.Model, device.RonNominal)
		}
	}
	if err := raw.ProgramTargets(targets, ProgramOptions{}); err != nil {
		t.Fatal(err)
	}
	// Under-programming: moving from Ron up to target needs RESET; with a
	// degraded voltage the achieved delta is smaller, so R < target for
	// top rows.
	rTop := raw.Cell(0, 0).Resistance(cfg.Model)
	if rTop >= target*0.99 {
		t.Fatalf("expected under-programming at top cell, got R = %v (target %v)", rTop, target)
	}

	comp := setup(4)
	for i := 0; i < cfg.Rows; i++ {
		for j := 0; j < cfg.Cols; j++ {
			comp.Cell(i, j).SetState(cfg.Model, device.RonNominal)
		}
	}
	if err := comp.ProgramTargets(targets, ProgramOptions{CompensateIR: true}); err != nil {
		t.Fatal(err)
	}
	rTopC := comp.Cell(0, 0).Resistance(cfg.Model)
	if math.Abs(rTopC-target)/target > 1e-6 {
		t.Fatalf("compensated programming missed target: R = %v, want %v", rTopC, target)
	}
}

func TestDisturbSmallButNonzero(t *testing.T) {
	cfg := baseConfig(32, 8)
	cfg.Disturb = true
	xb := mustNew(t, cfg, 6)
	targets := mat.NewMatrix(32, 8)
	targets.Fill(30e3)
	if err := xb.ProgramTargets(targets, ProgramOptions{}); err != nil {
		t.Fatal(err)
	}
	// With disturb on, landed resistances deviate slightly from targets
	// (every SET pulse disturbs row/column mates downward a little), but
	// the deviation must be small thanks to the sinh half-select immunity.
	var worst float64
	for i := 0; i < 32; i++ {
		for j := 0; j < 8; j++ {
			r := xb.Cell(i, j).Resistance(cfg.Model)
			dev := math.Abs(math.Log(r / 30e3))
			if dev > worst {
				worst = dev
			}
		}
	}
	if worst == 0 {
		t.Fatal("disturb had no effect at all")
	}
	fullRange := math.Log(device.RoffNominal / device.RonNominal)
	if worst/fullRange > 0.05 {
		t.Fatalf("disturb moved a cell %.2f%% of full range; V/2 immunity broken",
			100*worst/fullRange)
	}
}

func TestPretestRecoversVariation(t *testing.T) {
	cfg := baseConfig(16, 8)
	cfg.Sigma = 0.4
	xb := mustNew(t, cfg, 21)
	factors, err := xb.Pretest(100e3, 1, adc.Ideal())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		for j := 0; j < 8; j++ {
			want := xb.Cell(i, j).VariationFactor()
			got := factors.At(i, j)
			if math.Abs(got-want)/want > 1e-9 {
				t.Fatalf("cell (%d,%d): factor %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestPretestAveragesSwitchingNoise(t *testing.T) {
	cfg := baseConfig(10, 10)
	cfg.Sigma = 0.3
	cfg.SigmaCycle = 0.05
	one := mustNew(t, cfg, 22)
	many := mustNew(t, cfg, 22) // identical fabrication
	f1, err := one.Pretest(100e3, 1, adc.Ideal())
	if err != nil {
		t.Fatal(err)
	}
	f9, err := many.Pretest(100e3, 9, adc.Ideal())
	if err != nil {
		t.Fatal(err)
	}
	var err1, err9 float64
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			want := one.Cell(i, j).VariationFactor()
			err1 += math.Abs(f1.At(i, j) - want)
			err9 += math.Abs(f9.At(i, j) - want)
		}
	}
	if err9 >= err1 {
		t.Fatalf("averaging senses did not reduce error: 1-sense %v vs 9-sense %v", err1, err9)
	}
}

func TestPretestSeesDefects(t *testing.T) {
	cfg := baseConfig(4, 4)
	xb := mustNew(t, cfg, 23)
	xb.Cell(1, 2).Defect = device.DefectStuckHRS
	xb.Cell(2, 3).Defect = device.DefectStuckLRS
	factors, err := xb.Pretest(100e3, 1, adc.Ideal())
	if err != nil {
		t.Fatal(err)
	}
	if factors.At(1, 2) < 5 {
		t.Fatalf("stuck-HRS factor %v, want >> 1", factors.At(1, 2))
	}
	if factors.At(2, 3) > 0.2 {
		t.Fatalf("stuck-LRS factor %v, want << 1", factors.At(2, 3))
	}
	if f := factors.At(0, 0); math.Abs(f-1) > 1e-9 {
		t.Fatalf("healthy cell factor %v, want 1", f)
	}
}

func TestPretestValidation(t *testing.T) {
	xb := mustNew(t, baseConfig(2, 2), 1)
	if _, err := xb.Pretest(0, 1, nil); err == nil {
		t.Fatal("expected error for non-positive target")
	}
	if _, err := xb.Pretest(1e5, 0, nil); err == nil {
		t.Fatal("expected error for zero senses")
	}
	if _, err := xb.Pretest(1e5, 1, nil); err != nil {
		t.Fatalf("nil chain should default to ideal: %v", err)
	}
}

func TestPretestRestoresState(t *testing.T) {
	cfg := baseConfig(3, 3)
	cfg.Sigma = 0.2
	xb := mustNew(t, cfg, 30)
	targets := mat.NewMatrix(3, 3)
	targets.Fill(77e3)
	if err := xb.ProgramTargets(targets, ProgramOptions{}); err != nil {
		t.Fatal(err)
	}
	before := xb.Conductances()
	if _, err := xb.Pretest(100e3, 3, adc.Ideal()); err != nil {
		t.Fatal(err)
	}
	after := xb.Conductances()
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatal("pretest did not restore crossbar state")
		}
	}
}

func TestCellPanicsOutOfRange(t *testing.T) {
	xb := mustNew(t, baseConfig(2, 2), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	xb.Cell(2, 0)
}

func TestEffectiveWeightsIdeal(t *testing.T) {
	cfg := baseConfig(4, 4)
	cfg.Sigma = 0.2
	xb := mustNew(t, cfg, 40)
	weff, err := xb.EffectiveWeights()
	if err != nil {
		t.Fatal(err)
	}
	g := xb.Conductances()
	for i := range g.Data {
		if weff.Data[i] != g.Data[i] {
			t.Fatal("ideal effective weights must equal conductances")
		}
	}
}

func BenchmarkProgramTargets64x10(b *testing.B) {
	cfg := baseConfig(64, 10)
	cfg.RWire = 2.5
	xb, err := New(cfg, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	targets := mat.NewMatrix(64, 10)
	targets.Fill(50e3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := xb.ProgramTargets(targets, ProgramOptions{CompensateIR: true}); err != nil {
			b.Fatal(err)
		}
	}
}
