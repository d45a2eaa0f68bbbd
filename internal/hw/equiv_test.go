package hw_test

import (
	"math"
	"testing"

	"vortex/internal/adc"
	"vortex/internal/device"
	"vortex/internal/hw"
	"vortex/internal/mat"
	"vortex/internal/ncs"
	"vortex/internal/rng"
	"vortex/internal/xbar"
)

// The differential-equivalence suite: with RWire = 0 and ideal sensing,
// the analytic backend must reproduce the circuit backend exactly — the
// same fabrication draws, the same programming noise, the same column
// currents to the last bit. The tolerance below is the acceptance bound;
// in practice the two paths are bit-identical.
const equivTol = 1e-12

var equivSeeds = []uint64{1, 42, 12345, 987654321}

func equivConfig() hw.Config {
	return hw.Config{
		Rows:       48,
		Cols:       6,
		Model:      device.DefaultSwitchModel(),
		Sigma:      0.5,
		SigmaCycle: 0.02,
		DefectRate: 0.03,
	}
}

// buildPair fabricates the same array on both backends from the same seed.
func buildPair(t *testing.T, cfg hw.Config, seed uint64) (hw.Array, hw.Array) {
	t.Helper()
	circ, err := ncs.NewArray(hw.Circuit, cfg, rng.New(seed))
	if err != nil {
		t.Fatalf("circuit: %v", err)
	}
	ana, err := ncs.NewArray(hw.Analytic, cfg, rng.New(seed))
	if err != nil {
		t.Fatalf("analytic: %v", err)
	}
	return circ, ana
}

// effective returns an array's effective read map, failing the test on
// error.
func effective(t testing.TB, arr hw.Array) *mat.Matrix {
	t.Helper()
	w, err := arr.EffectiveWeights()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// checkCurrents compares the column currents both backends sense for
// row voltages v through their effective read maps.
func checkCurrents(t *testing.T, stage string, circ, ana hw.Array, v []float64) {
	t.Helper()
	ic := effective(t, circ).MulVec(v)
	ia := effective(t, ana).MulVec(v)
	if d := maxAbsDiff(ic, ia); d > equivTol {
		t.Fatalf("%s: column currents diverge by %g (tol %g)", stage, d, equivTol)
	}
}

func rampInput(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 0.1 + 0.9*float64(i)/float64(n)
	}
	return v
}

func TestAnalyticMatchesCircuitFabrication(t *testing.T) {
	for _, seed := range equivSeeds {
		cfg := equivConfig()
		circ, ana := buildPair(t, cfg, seed)
		gc, ga := circ.Conductances(), ana.Conductances()
		if d := maxAbsDiff(gc.Data, ga.Data); d > equivTol {
			t.Errorf("seed %d: as-fabricated conductances diverge by %g", seed, d)
		}
		// Fabrication defects must land on the same cells.
		dc := circ.(hw.DefectAccessor)
		da := ana.(hw.DefectAccessor)
		for i := 0; i < cfg.Rows; i++ {
			for j := 0; j < cfg.Cols; j++ {
				if dc.Defect(i, j) != da.Defect(i, j) {
					t.Fatalf("seed %d: defect mismatch at (%d,%d)", seed, i, j)
				}
			}
		}
		checkCurrents(t, "fabricated", circ, ana, rampInput(cfg.Rows))
	}
}

func TestAnalyticMatchesCircuitProgramming(t *testing.T) {
	for _, seed := range equivSeeds {
		cfg := equivConfig()
		circ, ana := buildPair(t, cfg, seed)
		vin := rampInput(cfg.Rows)

		// Open-loop targets: a resistance gradient across the array.
		targets := mat.NewMatrix(cfg.Rows, cfg.Cols)
		for i := 0; i < cfg.Rows; i++ {
			for j := 0; j < cfg.Cols; j++ {
				frac := float64(i*cfg.Cols+j) / float64(cfg.Rows*cfg.Cols)
				targets.Set(i, j, cfg.Model.Ron*math.Exp(frac*math.Log(cfg.Model.Roff/cfg.Model.Ron)))
			}
		}
		if err := circ.ProgramTargets(targets, hw.ProgramOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := ana.ProgramTargets(targets, hw.ProgramOptions{}); err != nil {
			t.Fatal(err)
		}
		checkCurrents(t, "programmed", circ, ana, vin)

		// Incremental pulses on a sparse batch.
		var pulses []hw.CellPulse
		p := cfg.Model.PulseForTarget(cfg.Model.XMax(), cfg.Model.XMin()+0.5)
		for i := 0; i < cfg.Rows; i += 5 {
			pulses = append(pulses, hw.CellPulse{Row: i, Col: i % cfg.Cols, Pulse: p})
		}
		if err := circ.ProgramBatch(pulses, hw.ProgramOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := ana.ProgramBatch(pulses, hw.ProgramOptions{}); err != nil {
			t.Fatal(err)
		}
		checkCurrents(t, "batch", circ, ana, vin)

		// The cost accounting must agree too.
		sc, sa := circ.Stats(), ana.Stats()
		if sc.Pulses != sa.Pulses || sc.Batches != sa.Batches {
			t.Fatalf("seed %d: stats diverge: circuit %+v analytic %+v", seed, sc, sa)
		}
		if math.Abs(sc.Energy-sa.Energy) > equivTol {
			t.Fatalf("seed %d: energy diverges by %g", seed, math.Abs(sc.Energy-sa.Energy))
		}

		// Reset returns both to the same known state.
		circ.ResetAll()
		ana.ResetAll()
		checkCurrents(t, "reset", circ, ana, vin)
	}
}

func TestAnalyticMatchesCircuitVerifyAndPretest(t *testing.T) {
	for _, seed := range equivSeeds[:3] {
		cfg := equivConfig()
		circ, ana := buildPair(t, cfg, seed)
		vin := rampInput(cfg.Rows)

		targets := mat.NewMatrix(cfg.Rows, cfg.Cols)
		targets.Fill(120e3)
		opts := hw.VerifyOptions{TolLog: 0.01, MaxIter: 8}
		rc, err := circ.ProgramVerify(targets, opts)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := ana.ProgramVerify(targets, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rc.Converged != ra.Converged || rc.Exhausted != ra.Exhausted || rc.Stuck != ra.Stuck {
			t.Fatalf("seed %d: verify verdicts diverge: circuit %+v analytic %+v", seed, rc, ra)
		}
		if math.Abs(rc.Worst-ra.Worst) > equivTol {
			t.Fatalf("seed %d: verify worst residual diverges by %g", seed, math.Abs(rc.Worst-ra.Worst))
		}
		checkCurrents(t, "verify", circ, ana, vin)

		// Pre-test factors through an identical sense chain.
		chain := adc.Ideal()
		fc, err := circ.Pretest(100e3, 2, chain)
		if err != nil {
			t.Fatal(err)
		}
		fa, err := ana.Pretest(100e3, 2, chain)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(fc.Data, fa.Data); d > equivTol {
			t.Fatalf("seed %d: pretest factors diverge by %g", seed, d)
		}
		// Pretest must restore the array state on both backends.
		checkCurrents(t, "post-pretest", circ, ana, vin)
	}
}

func TestAnalyticRejectsUnsupportedConfig(t *testing.T) {
	cfg := equivConfig()
	cfg.RWire = 2.5
	if _, err := ncs.NewArray(hw.Analytic, cfg, rng.New(1)); err == nil {
		t.Fatal("analytic backend accepted RWire != 0")
	}
	cfg = equivConfig()
	cfg.Disturb = true
	if _, err := ncs.NewArray(hw.Analytic, cfg, rng.New(1)); err == nil {
		t.Fatal("analytic backend accepted half-select disturb")
	}
}

func TestAnalyticCapabilities(t *testing.T) {
	ana, err := ncs.NewArray(hw.Analytic, equivConfig(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ana.(hw.DefectAccessor); !ok {
		t.Error("analytic backend must expose per-cell defects for fault injection")
	}
	if _, ok := ana.(hw.Ager); ok {
		t.Error("analytic backend must not claim retention-drift support")
	}
	if _, ok := ana.(hw.CellAccessor); ok {
		t.Error("analytic backend must not claim per-cell device objects")
	}
	// Setting a defect must change the read map like the circuit does.
	da := ana.(hw.DefectAccessor)
	vin := rampInput(ana.Rows())
	before := effective(t, ana).MulVec(vin)
	// Find a healthy cell and open it.
	found := false
	for i := 0; i < ana.Rows() && !found; i++ {
		if da.Defect(i, 0) == device.DefectNone {
			da.SetDefect(i, 0, device.DefectOpen)
			found = true
		}
	}
	if !found {
		t.Fatal("no healthy cell in column 0")
	}
	after := effective(t, ana).MulVec(vin)
	if after[0] >= before[0] {
		t.Errorf("opening a cell did not reduce the column current: %g -> %g", before[0], after[0])
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		in   string
		b    hw.Backend
		fail bool
	}{
		{"circuit", hw.Circuit, false},
		{"", hw.Circuit, false},
		{"analytic", hw.Analytic, false},
		{"quantum", 0, true},
	} {
		b, err := hw.ParseBackend(tc.in)
		if tc.fail {
			if err == nil {
				t.Errorf("ParseBackend(%q) accepted", tc.in)
			}
			continue
		}
		if err != nil || b != tc.b {
			t.Errorf("ParseBackend(%q) = %v, %v", tc.in, b, err)
		}
	}
}

// Compile-time capability contract of the circuit backend.
var (
	_ hw.Array          = (*xbar.Crossbar)(nil)
	_ hw.Ager           = (*xbar.Crossbar)(nil)
	_ hw.DefectAccessor = (*xbar.Crossbar)(nil)
	_ hw.CellAccessor   = (*xbar.Crossbar)(nil)
)
