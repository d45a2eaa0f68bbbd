package main

import (
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"

	"vortex/internal/experiment"
	"vortex/internal/obs"
)

// sweepSpec is an experiment runner whose layers a serve workload's
// traced run measures after its server has drained. The sweeps are not
// workloads of their own: their wall clock follows the host's CPU speed
// (see NOTES.md).
type sweepSpec struct {
	// digest names the runner's pinned CSV digest in pins.json.
	digest   string
	runner   string
	scale    experiment.Scale
	trials   int   // Monte-Carlo trials per run on the ensemble engine
	rows     int   // CSV data rows
	rateCols []int // CSV columns holding percentages
	// proto is the digit sets the runner generates first; their
	// generation time stands in for the preparation a runner that reports
	// none (no SoaResult) spends before its named layers.
	proto protocol
	// cover names the span histograms whose time, with the preparation,
	// should account for the run's wall clock.
	cover []string
}

var (
	sweepMC = sweepSpec{
		digest: "sweep_mc", runner: "soasweep", scale: experiment.Full,
		trials: 256, rows: 256, rateCols: []int{2},
		cover: []string{"span.vec.fabricate", "span.vec.program", "span.vec.evaluate"},
	}
	sweepTrain = sweepSpec{
		digest: "sweep_train", runner: "table1", scale: experiment.Quick,
		rows: 6, rateCols: []int{1, 2}, proto: protoTable1Quick,
		cover: []string{"span.train.cld", "span.train.selftune"},
	}
)

// sweepPairs is how many untraced/traced run pairs the traced run makes
// after the digest gate: the paired comparison behind obs.overhead_pct.
const sweepPairs = 3

// runs is what a sequence of timed sweep runs measured.
type runs struct {
	walls, cores, prep, ensemble []float64
	traced, untraced             []float64 // walls split by tracing
	failed                       bool      // a run failed; the failed gate says why
}

// layersIn measures the sweep's layers inside a serve workload's traced
// run: the digest gate, then sweepPairs untraced/traced run pairs. The
// tracing overhead and the trace buffer's span counts are reported last,
// once every span of the invocation has been recorded.
func (spec sweepSpec) layersIn(ctx context.Context, seed uint64, p pins, r *record, tb *obs.TraceBuffer) error {
	runner, err := spec.gate(ctx, p, r)
	if err != nil {
		return err
	}
	before := obs.Default().Snapshot()
	rs := spec.measure(ctx, runner, seed, tb, r)
	if rs.failed {
		return nil
	}
	if err := spec.reportLayers(r, rs, snapDelta{before, obs.Default().Snapshot()}, tb, seed); err != nil {
		return err
	}
	if m := median(rs.untraced); m > 0 {
		r.set("obs.overhead_pct", 100*(median(rs.traced)-m)/m)
	}
	r.set("obs.traced_iqr_pct", iqrPct(rs.traced))
	r.set("obs.untraced_iqr_pct", iqrPct(rs.untraced))
	r.set("obs.spans", float64(tb.Len()))
	r.set("obs.spans_dropped", float64(tb.Dropped()))
	return nil
}

// gate runs the runner at the pinned benchmark seed and checks the
// SHA-256 of its CSV against the pin. The run also warms caches and
// lazy state before anything is timed.
func (spec sweepSpec) gate(ctx context.Context, p pins, r *record) (experiment.Runner, error) {
	runner, ok := experiment.Lookup(spec.runner)
	if !ok {
		return runner, fmt.Errorf("runner %q is not registered", spec.runner)
	}
	res, err := runner.Run(ctx, spec.scale, p.Seed)
	if err != nil {
		return runner, fmt.Errorf("%s at seed %d: %w", spec.runner, p.Seed, err)
	}
	digest := sha256.Sum256([]byte(res.CSV()))
	got, want := hex.EncodeToString(digest[:]), p.Digests[spec.digest]
	r.check("digest."+spec.digest, got == want, "%s %s CSV at seed %d: sha256 %s, pinned %s",
		spec.runner, spec.scale, p.Seed, got, want)
	return runner, nil
}

// measure makes sweepPairs pairs of runs at fresh seeds, untraced then
// traced, so the tracing overhead is a paired comparison inside one
// process.
func (spec sweepSpec) measure(ctx context.Context, runner experiment.Runner, seed uint64, tb *obs.TraceBuffer, r *record) runs {
	var rs runs
	for i := 0; i < 2*sweepPairs; i++ {
		on := i%2 == 1
		if on {
			obs.SetTracer(tb)
		}
		c0, t0 := cpuTime(), time.Now()
		res, err := runner.Run(ctx, spec.scale, repSeed(seed, i))
		wall, cpu := time.Since(t0), cpuTime()-c0
		obs.SetTracer(nil)
		if err == nil {
			err = validateCSV(res.CSV(), spec)
		}
		if err != nil {
			rs.failed = true
			r.check("run."+spec.runner, false, "%s at seed %d: %v", spec.runner, repSeed(seed, i), err)
			return rs
		}
		rs.walls = append(rs.walls, wall.Seconds())
		rs.cores = append(rs.cores, cpu.Seconds()/wall.Seconds())
		if on {
			rs.traced = append(rs.traced, wall.Seconds())
		} else {
			rs.untraced = append(rs.untraced, wall.Seconds())
		}
		if rr, ok := res.(*experiment.RunResult); ok {
			if soa, ok := rr.Unwrap().(*experiment.SoaResult); ok {
				rs.prep = append(rs.prep, soa.Setup.Seconds())
				rs.ensemble = append(rs.ensemble, soa.Sweep.Seconds())
			}
		}
	}
	return rs
}

// reportLayers sets the sweep's per-layer metrics from its runs and the
// registry change over them; sums and counts are per run.
func (spec sweepSpec) reportLayers(r *record, rs runs, d snapDelta, tb *obs.TraceBuffer, seed uint64) error {
	n := float64(len(rs.walls))
	r.Info["hw.circuit.solver_solves"] = d.histCount("hw.circuit.solver.sweeps")
	var covered float64
	if len(rs.prep) > 0 {
		r.set("experiment.prep_s", median(rs.prep))
		r.set("experiment.ensemble_s", median(rs.ensemble))
		covered = sum(rs.prep) / n
	} else {
		gen, err := medianSeconds(3, func() (time.Duration, error) { return genInputs(spec.proto, seed) })
		if err != nil {
			return err
		}
		covered = gen
	}
	for _, name := range spec.cover {
		covered += d.histSum(name) / n / 1e9
	}
	meanWall := sum(rs.walls) / n
	r.set("experiment.uncovered_pct", 100*(meanWall-covered)/meanWall)
	var chunks []float64
	for _, s := range tb.Spans() {
		if s.Name == "chunk" {
			chunks = append(chunks, float64(s.Dur.Nanoseconds())/1e6)
		}
	}
	r.set("experiment.chunk_ms", median(chunks))
	if spec.trials > 0 {
		r.set("experiment.vec_share", d.counter("experiment.vec.trials")/(n*float64(spec.trials)))
	}
	r.set("experiment.vec_fallbacks", d.counter("experiment.vec.fallbacks"))
	r.set("experiment.cores_busy", median(rs.cores))
	r.set("hw.batch.scores_ms", d.histSum("hw.analytic.batch.scores_ns")/n/1e6)
	r.set("hw.batch.fabricate_ms", d.histSum("hw.analytic.batch.fabricate_ns")/n/1e6)
	r.set("hw.batch.tensor_build_ms", d.histSum("hw.analytic.batch.tensor_build_ns")/n/1e6)
	r.set("hw.batch.program_ms", d.histSum("hw.analytic.batch.program_ns")/n/1e6)
	r.set("ncs.evaluate_ms", d.histSum("span.vec.evaluate")/n/1e6)
	r.set("train.cld_s", d.histSum("span.train.cld")/n/1e9)
	r.set("train.selftune_s", d.histSum("span.train.selftune")/n/1e9)
	r.set("train.cld_pulses", d.counter("train.cld.pulses")/n)
	r.set("hw.circuit.program_ms", d.histSum("hw.circuit.program_ns")/n/1e6)
	r.set("hw.circuit.pulses", d.counter("hw.circuit.pulses")/n)
	r.set("hw.circuit.reads", d.counter("hw.circuit.reads")/n)
	return nil
}

// validateCSV checks a run's CSV has the runner's shape: a header, the
// expected number of rows, and percentages in [0, 100] where the runner
// reports rates.
func validateCSV(text string, spec sweepSpec) error {
	rows, err := csv.NewReader(strings.NewReader(text)).ReadAll()
	if err != nil {
		return err
	}
	if len(rows) != spec.rows+1 {
		return fmt.Errorf("CSV has %d data rows, want %d", len(rows)-1, spec.rows)
	}
	for _, row := range rows[1:] {
		for _, c := range spec.rateCols {
			if c >= len(row) {
				return fmt.Errorf("CSV row %v has no column %d", row, c)
			}
			v, err := strconv.ParseFloat(row[c], 64)
			if err != nil || v < 0 || v > 100 {
				return fmt.Errorf("CSV cell %q is not a percentage", row[c])
			}
		}
	}
	return nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
