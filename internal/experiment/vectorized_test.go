package experiment

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"vortex/internal/core"
	"vortex/internal/dataset"
	"vortex/internal/hw"
	"vortex/internal/mat"
	"vortex/internal/obs"
	"vortex/internal/rng"
	"vortex/internal/train"
)

// vecCtx builds a decorated-run context carrying a vectorize policy, the
// way instrumentRun would install it.
func vecCtx(pol VecPolicy) context.Context {
	st := newSweepState("vectest", Quick, 7, RunConfig{Vectorize: pol})
	return withSweepState(context.Background(), st)
}

// ensembleFixture generates the quick-scale sets and a spec over four
// fabrication seeds for the given logical weights.
func ensembleFixture(t *testing.T, w *mat.Matrix, trainSet, testSet *dataset.Set) ensembleSpec {
	t.Helper()
	return ensembleSpec{
		scale: Quick, inputs: trainSet.Features(), sigma: 0.6, adcBits: 6,
		weights: w, set: testSet,
		seeds: []uint64{811, 911, 1011, 1111},
	}
}

// schemeWeights trains the three paper schemes at quick scale and
// returns their logical weight matrices: open-loop off-device (software
// GDT), close-loop on-device, and the Vortex pipeline.
func schemeWeights(t *testing.T, trainSet *dataset.Set) map[string]*mat.Matrix {
	t.Helper()
	p := protoFor(Quick)
	old, err := train.SoftwareGDT(trainSet, dataset.NumClasses, p.sgd, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	cldNCS, err := buildNCS(hw.Circuit, trainSet.Features(), 0, 0.3, 0, 6, 33)
	if err != nil {
		t.Fatal(err)
	}
	cld, err := train.CLD(cldNCS, trainSet, train.CLDConfig{Epochs: 4}, rng.New(35))
	if err != nil {
		t.Fatal(err)
	}
	vxNCS, err := buildNCS(hw.Circuit, trainSet.Features(), 4, 0.3, 0, 6, 37)
	if err != nil {
		t.Fatal(err)
	}
	vx, err := core.TrainVortex(vxNCS, trainSet, core.VortexConfig{
		UseAMP: true, Gamma: 0.1, SigmaOverride: 0.6, SGD: p.sgd,
	}, rng.New(39))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*mat.Matrix{"old": old, "cld": cld.Weights, "vortex": vx.Weights}
}

// TestEnsembleRatesSchemeParity is the PR's core parity suite: for
// weights produced by each of the three training schemes, an ensemble
// sweep over four fabrication seeds must return bit-identical per-trial
// test rates whether it runs the trial-vectorized fast path (VecForce)
// or the per-trial scalar engine on the same pinned backend (VecScalar).
func TestEnsembleRatesSchemeParity(t *testing.T) {
	p := protoFor(Quick)
	trainSet, testSet, err := dataset.Digits(p.perClassTrain, p.perClassTest, p.factor, 5)
	if err != nil {
		t.Fatal(err)
	}
	vecTrials := obs.Default().Counter("experiment.vec.trials")
	for name, w := range schemeWeights(t, trainSet) {
		spec := ensembleFixture(t, w, trainSet, testSet)
		before := vecTrials.Value()
		fast, fdone, err := ensembleRates(vecCtx(VecForce), spec)
		if err != nil {
			t.Fatalf("%s: force: %v", name, err)
		}
		if got := vecTrials.Value() - before; got != int64(len(spec.seeds)) {
			t.Fatalf("%s: vectorized %d of %d trials under VecForce", name, got, len(spec.seeds))
		}
		slow, sdone, err := ensembleRates(vecCtx(VecScalar), spec)
		if err != nil {
			t.Fatalf("%s: scalar: %v", name, err)
		}
		for i := range spec.seeds {
			if !fdone[i] || !sdone[i] {
				t.Fatalf("%s: trial %d incomplete (force=%v scalar=%v)", name, i, fdone[i], sdone[i])
			}
			if math.Float64bits(fast[i]) != math.Float64bits(slow[i]) {
				t.Errorf("%s: trial %d: vectorized rate %v, scalar %v", name, i, fast[i], slow[i])
			}
		}
	}
}

// TestEnsembleBackendPinning checks VecForce and VecScalar pin the same
// analytic backend for ideal-wire sweeps — so a parity diff compares
// identical physics — while wire-parasitic sweeps and the other policies
// keep the classic per-scale routing.
func TestEnsembleBackendPinning(t *testing.T) {
	ideal := ensembleSpec{scale: Quick}
	wired := ensembleSpec{scale: Quick, rwire: 2.5}
	cases := []struct {
		name string
		spec ensembleSpec
		pol  VecPolicy
		want hw.Backend
	}{
		{"force-ideal", ideal, VecForce, hw.Analytic},
		{"scalar-ideal", ideal, VecScalar, hw.Analytic},
		{"auto-quick", ideal, VecAuto, hw.Circuit},
		{"off-quick", ideal, VecOff, hw.Circuit},
		{"force-wired", wired, VecForce, hw.Circuit},
		{"auto-full", ensembleSpec{scale: Full}, VecAuto, hw.Analytic},
	}
	for _, tc := range cases {
		if got := ensembleBackend(tc.spec, tc.pol); got != tc.want {
			t.Errorf("%s: backend %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestVecEligibility checks the guard conditions: defect/fault-mutating
// sweeps, wire parasitics, non-analytic backends and the non-vectorizing
// policies never take the batch path — even under VecForce.
func TestVecEligibility(t *testing.T) {
	ideal := ensembleSpec{scale: Full}
	cases := []struct {
		name    string
		spec    ensembleSpec
		pol     VecPolicy
		backend hw.Backend
		want    bool
	}{
		{"eligible", ideal, VecAuto, hw.Analytic, true},
		{"eligible-force", ideal, VecForce, hw.Analytic, true},
		{"policy-off", ideal, VecOff, hw.Analytic, false},
		{"policy-scalar", ideal, VecScalar, hw.Analytic, false},
		{"mutates-hardware", ensembleSpec{scale: Full, mutatesHardware: true}, VecForce, hw.Analytic, false},
		{"wire-parasitics", ensembleSpec{scale: Full, rwire: 2.5}, VecForce, hw.Circuit, false},
		{"circuit-backend", ideal, VecAuto, hw.Circuit, false},
	}
	for _, tc := range cases {
		ok, reason := vecEligible(tc.spec, tc.pol, tc.backend)
		if ok != tc.want {
			t.Errorf("%s: eligible=%v (reason %q), want %v", tc.name, ok, reason, tc.want)
		}
		if !ok && reason == "" {
			t.Errorf("%s: ineligibility must carry a reason", tc.name)
		}
	}
}

// TestMutatingSweepNeverVectorized is the eligibility guard end to end:
// a sweep marked as mutating hardware per trial runs the scalar engine
// even under VecForce, and its results match a VecOff run exactly.
func TestMutatingSweepNeverVectorized(t *testing.T) {
	p := protoFor(Quick)
	trainSet, testSet, err := dataset.Digits(p.perClassTrain, p.perClassTest, p.factor, 5)
	if err != nil {
		t.Fatal(err)
	}
	w, err := train.SoftwareGDT(trainSet, dataset.NumClasses, p.sgd, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	spec := ensembleFixture(t, w, trainSet, testSet)
	spec.mutatesHardware = true
	vecTrials := obs.Default().Counter("experiment.vec.trials")
	before := vecTrials.Value()
	forced, fdone, err := ensembleRates(vecCtx(VecForce), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := vecTrials.Value() - before; got != 0 {
		t.Fatalf("mutating sweep vectorized %d trials under VecForce, want 0", got)
	}
	off, odone, err := ensembleRates(vecCtx(VecOff), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range spec.seeds {
		if !fdone[i] || !odone[i] {
			t.Fatalf("trial %d incomplete", i)
		}
		if math.Float64bits(forced[i]) != math.Float64bits(off[i]) {
			t.Errorf("trial %d: forced %v, off %v", i, forced[i], off[i])
		}
	}
}

// TestBatchStageFallback checks a failing or panicking batch evaluator
// degrades to the per-trial engine with correct results and a fallback
// counter tick, never an error or a crash.
func TestBatchStageFallback(t *testing.T) {
	fallbacks := obs.Default().Counter("experiment.vec.fallbacks")
	for _, tc := range []struct {
		name  string
		batch func(ctx context.Context, idxs []int) ([]int, error)
	}{
		{"error", func(ctx context.Context, idxs []int) ([]int, error) { return nil, errors.New("boom") }},
		{"panic", func(ctx context.Context, idxs []int) ([]int, error) { panic("boom") }},
		{"short", func(ctx context.Context, idxs []int) ([]int, error) { return make([]int, len(idxs)-1), nil }},
	} {
		before := fallbacks.Value()
		var scalarRuns atomic.Int64
		vals, done, err := parallelTrialsBatch(context.Background(), 7, tc.batch,
			func(tr Trial) (int, error) { scalarRuns.Add(1); return tr.Index * 10, nil })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := range vals {
			if !done[i] || vals[i] != i*10 {
				t.Fatalf("%s: trial %d: done=%v val=%d", tc.name, i, done[i], vals[i])
			}
		}
		if got := scalarRuns.Load(); got != 7 {
			t.Errorf("%s: scalar engine ran %d trials, want 7", tc.name, got)
		}
		if fallbacks.Value() != before+1 {
			t.Errorf("%s: fallback counter did not tick", tc.name)
		}
	}
}

// TestBatchStageChunksAndBookkeeping checks the vectorized stage hands
// the evaluator index-ordered chunks of at most vecChunk trials and
// records every completed trial in the shared mask.
func TestBatchStageChunksAndBookkeeping(t *testing.T) {
	const n = vecChunk*2 + 5
	var calls [][]int
	vals, done, err := parallelTrialsBatch(context.Background(), n,
		func(ctx context.Context, idxs []int) ([]int, error) {
			calls = append(calls, append([]int(nil), idxs...))
			out := make([]int, len(idxs))
			for k, i := range idxs {
				out[k] = i * 10
			}
			return out, nil
		},
		func(tr Trial) (int, error) {
			t.Errorf("scalar engine ran trial %d; batch stage should have completed all", tr.Index)
			return tr.Index * 10, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 3 {
		t.Fatalf("batch evaluator called %d times, want 3", len(calls))
	}
	want := 0
	for _, chunk := range calls {
		if len(chunk) > vecChunk {
			t.Fatalf("chunk of %d trials exceeds vecChunk=%d", len(chunk), vecChunk)
		}
		for _, i := range chunk {
			if i != want {
				t.Fatalf("chunk order: got trial %d, want %d", i, want)
			}
			want++
		}
	}
	for i := range vals {
		if !done[i] || vals[i] != i*10 {
			t.Fatalf("trial %d: done=%v val=%d", i, done[i], vals[i])
		}
	}
}

// TestBatchStageCheckpointResume checks checkpoint interop: trials
// replayed from a checkpoint never reach the batch evaluator, the batch
// stage persists its trials under the scalar keys, and a resumed run's
// output is bit-identical to an uninterrupted one.
func TestBatchStageCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	mk := func() context.Context {
		st := newSweepState("vectest", Quick, 7, RunConfig{CheckpointDir: dir, Partial: true})
		store, err := openCheckpoint(dir, "vectest", Quick, 7)
		if err != nil {
			t.Fatal(err)
		}
		st.store = store
		return withSweepState(context.Background(), st)
	}
	const n = 10
	// First pass: the batch stage fails, the scalar engine completes the
	// first half and abandons the rest (partial mode) — mixed bookkeeping.
	_, done, err := parallelTrialsBatch(mk(), n,
		func(ctx context.Context, idxs []int) ([]float64, error) { return nil, errors.New("cold start") },
		func(tr Trial) (float64, error) {
			if tr.Index >= n/2 {
				return 0, errors.New("simulated crash")
			}
			return float64(tr.Index) / 16, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n/2; i++ {
		if !done[i] {
			t.Fatalf("first pass lost trial %d", i)
		}
	}
	// Second pass: stored trials replay without touching the evaluators;
	// the batch stage computes exactly the missing half.
	var batched []int
	vals, done2, err := parallelTrialsBatch(mk(), n,
		func(ctx context.Context, idxs []int) ([]float64, error) {
			batched = append(batched, idxs...)
			out := make([]float64, len(idxs))
			for k, i := range idxs {
				out[k] = float64(i) / 16
			}
			return out, nil
		},
		func(tr Trial) (float64, error) {
			t.Errorf("scalar engine recomputed trial %d on resume", tr.Index)
			return float64(tr.Index) / 16, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(batched) != n/2 {
		t.Fatalf("resume batched %d trials, want the %d missing", len(batched), n/2)
	}
	for i := 0; i < n; i++ {
		if !done2[i] || math.Float64bits(vals[i]) != math.Float64bits(float64(i)/16) {
			t.Fatalf("resumed trial %d: done=%v val=%v", i, done2[i], vals[i])
		}
	}
}

// TestSoaSweepPolicyParity runs the soasweep driver end to end under
// VecForce and VecScalar and requires byte-identical CSV — the in-process
// version of the CI parity smoke.
func TestSoaSweepPolicyParity(t *testing.T) {
	r, ok := Lookup("soasweep")
	if !ok {
		t.Fatal("soasweep runner not registered")
	}
	run := func(pol VecPolicy) string {
		ctx := WithRunConfig(context.Background(), RunConfig{Vectorize: pol})
		res, err := r.Run(ctx, Quick, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res.CSV()
	}
	force, scalar := run(VecForce), run(VecScalar)
	if force != scalar {
		t.Errorf("soasweep CSV differs between VecForce and VecScalar:\n--- force ---\n%s--- scalar ---\n%s", force, scalar)
	}
}

// TestParseVecPolicy pins the flag surface.
func TestParseVecPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want VecPolicy
	}{{"", VecAuto}, {"auto", VecAuto}, {"force", VecForce}, {"scalar", VecScalar}, {"off", VecOff}} {
		got, err := ParseVecPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseVecPolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("VecPolicy(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseVecPolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}
