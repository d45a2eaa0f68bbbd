package main

import (
	"fmt"
	"time"

	"vortex/internal/dataset"
	"vortex/internal/hw"
	"vortex/internal/irdrop"
	"vortex/internal/mat"
	"vortex/internal/ncs"
	"vortex/internal/rng"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload.
// BENCHMARK.json declares the same list (the self-test checks it).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"p50_us", "us"},
	{"p90_us", "us"},
}

// perLayer are the metrics of a traced run. A layer that does no work on
// a workload reports 0.
var perLayer = []metricDef{
	{"experiment.prep_s", "s"},
	{"experiment.ensemble_s", "s"},
	{"experiment.chunk_ms", "ms"},
	{"experiment.vec_share", "1"},
	{"experiment.vec_fallbacks", "count"},
	{"experiment.cores_busy", "cores"},
	{"experiment.uncovered_pct", "%"},
	{"dataset.gen_s", "s"},
	{"mat.lanes_ns", "ns"},
	{"hw.batch.scores_ms", "ms"},
	{"hw.batch.fabricate_ms", "ms"},
	{"hw.batch.tensor_build_ms", "ms"},
	{"hw.batch.program_ms", "ms"},
	{"ncs.evaluate_ms", "ms"},
	{"ncs.scores_ns", "ns"},
	{"train.cld_s", "s"},
	{"train.selftune_s", "s"},
	{"train.cld_pulses", "count"},
	{"hw.circuit.program_ms", "ms"},
	{"hw.circuit.pulses", "count"},
	{"hw.circuit.reads", "count"},
	{"irdrop.program_v_us", "us"},
	{"irdrop.weff_us", "us"},
	{"fleet.batch_us", "us"},
	{"fleet.batch_size", "inputs"},
	{"fleet.util", "s/s"},
	{"fleet.failovers", "count"},
	{"fleet.degraded", "count"},
	{"serve.server_us", "us"},
	{"serve.wait_us", "us"},
	{"serve.net_us", "us"},
	{"serve.batch_size", "inputs"},
	{"serve.batches", "count"},
	{"serve.accepted", "count"},
	{"serve.served", "count"},
	{"serve.failed", "count"},
	{"serve.timed_out", "count"},
	{"serve.rejected", "count"},
	{"p99_us", "us"},
	{"fail_ratio", "1"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"mem_mb", "MB"},
	{"obs.overhead_pct", "%"},
	{"obs.traced_iqr_pct", "%"},
	{"obs.untraced_iqr_pct", "%"},
	{"obs.spans", "count"},
	{"obs.spans_dropped", "count"},
}

// unitOf returns the declared unit of a metric.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// protocol is the digit-set shape a runner trains and tests on: balanced
// 28x28 sets of perClassTrain and perClassTest digits (train from the
// seed, test from seed+1), each undersampled by every factor. The
// numbers mirror the experiment and serve packages' scale protocols.
type protocol struct {
	perClassTrain, perClassTest int
	factors                     []int
}

var (
	protoFull        = protocol{400, 200, []int{1}}
	protoQuick       = protocol{25, 15, []int{4}}
	protoTable1Quick = protocol{25, 15, []int{2, 4}}
)

// genInputs generates a protocol's digit sets and returns how long it
// took — the dataset layer, called directly.
func genInputs(p protocol, seed uint64) (time.Duration, error) {
	start := time.Now()
	cfg := dataset.DefaultConfig()
	train, err := dataset.GenerateBalanced(cfg, p.perClassTrain, rng.New(seed))
	if err != nil {
		return 0, err
	}
	test, err := dataset.GenerateBalanced(cfg, p.perClassTest, rng.New(seed+1))
	if err != nil {
		return 0, err
	}
	for _, f := range p.factors {
		if _, err := dataset.Undersample(train, f, dataset.Decimate); err != nil {
			return 0, err
		}
		if _, err := dataset.Undersample(test, f, dataset.Decimate); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// medianSeconds runs f n times and returns the median duration in
// seconds.
func medianSeconds(n int, f func() (time.Duration, error)) (float64, error) {
	var ds []float64
	for i := 0; i < n; i++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		ds = append(ds, d.Seconds())
	}
	return median(ds), nil
}

// nsPerOp times f in five batches of at least 20 ms each and returns the
// median nanoseconds per call.
func nsPerOp(f func() error) (float64, error) {
	if err := f(); err != nil { // warm caches and lazy state
		return 0, err
	}
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		if time.Since(start) >= 20*time.Millisecond {
			break
		}
		n *= 2
	}
	var per []float64
	for b := 0; b < 5; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(per), nil
}

// directLayers measures the layers a traced run calls directly: dataset
// generation at the workload's protocol, the fused lane kernel at the
// paper's 784x10 geometry, NCS batch scoring at the workload's input
// width, and the IR-drop solver on a 196x10 array with 2.5 ohm wires.
func directLayers(r *record, p protocol, inputs int, seed uint64) error {
	gen, err := medianSeconds(3, func() (time.Duration, error) { return genInputs(p, seed) })
	if err != nil {
		return err
	}
	r.set("dataset.gen_s", gen)

	src := rng.New(seed)
	g := mat.NewTensor3(784, 10, mat.TrialLanes)
	for i := range g.Data {
		g.Data[i] = 1e-6 + 99e-6*src.Float64()
	}
	x := make([]float64, 784)
	for i := range x {
		x[i] = src.Float64()
	}
	dst := make([]float64, 10*mat.TrialLanes)
	lanes, err := nsPerOp(func() error { g.MulVecLanesTo(dst, x); return nil })
	if err != nil {
		return err
	}
	r.set("mat.lanes_ns", lanes)

	scores, err := ncsScoresNs(inputs, seed)
	if err != nil {
		return err
	}
	r.set("ncs.scores_ns", scores)

	pv, weff, err := irdropUs(seed)
	if err != nil {
		return err
	}
	r.set("irdrop.program_v_us", pv)
	r.set("irdrop.weff_us", weff)
	return nil
}

// ncsScoresNs is the per-input cost of NCS.ScoresBatch on a programmed
// analytic NCS (the fleet's read path) for a 32-input batch.
func ncsScoresNs(inputs int, seed uint64) (float64, error) {
	cfg := ncs.DefaultConfig(inputs, dataset.NumClasses)
	cfg.Backend = hw.Analytic
	cfg.Sigma = 0.3
	n, err := ncs.New(cfg, rng.New(seed))
	if err != nil {
		return 0, err
	}
	src := rng.New(seed + 1)
	w := mat.NewMatrix(inputs, dataset.NumClasses)
	for i := range w.Data {
		w.Data[i] = 2*src.Float64() - 1
	}
	if err := n.ProgramWeights(w, hw.ProgramOptions{}); err != nil {
		return 0, err
	}
	const batch = 32
	xs := make([][]float64, batch)
	for k := range xs {
		xs[k] = make([]float64, inputs)
		for i := range xs[k] {
			xs[k][i] = src.Float64()
		}
	}
	per, err := nsPerOp(func() error { _, err := n.ScoresBatch(xs); return err })
	return per / batch, err
}

// irdropUs times Network.ProgramVoltage (cycling over every cell) and
// EffectiveWeights right after a one-cell conductance change — what a
// programming pulse does to the array — in microseconds per call.
func irdropUs(seed uint64) (programV, weff float64, err error) {
	const rows, cols, rwire, vprog = 196, 10, 2.5, 2.9
	src := rng.New(seed)
	g := mat.NewMatrix(rows, cols)
	for i := range g.Data {
		g.Data[i] = 1e-6 + 99e-6*src.Float64()
	}
	nw := irdrop.NewNetwork(g, rwire)
	cell := 0
	pv, err := nsPerOp(func() error {
		_, err := nw.ProgramVoltage(cell/cols, cell%cols, vprog)
		cell = (cell + 1) % (rows * cols)
		return err
	})
	if err != nil {
		return 0, 0, fmt.Errorf("irdrop ProgramVoltage: %w", err)
	}
	we, err := nsPerOp(func() error {
		g.Set(cell/cols, cell%cols, 1e-6+99e-6*src.Float64())
		cell = (cell + 7) % (rows * cols)
		_, err := nw.EffectiveWeights()
		return err
	})
	if err != nil {
		return 0, 0, fmt.Errorf("irdrop EffectiveWeights: %w", err)
	}
	return pv / 1e3, we / 1e3, nil
}
