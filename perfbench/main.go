// Command perfbench is the repository's benchmark. One invocation runs
// one workload, checks its outputs, and prints every metric by name with
// its unit; the last line of standard output is the machine-readable
// result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}}}
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload serve_bin --seed 1 --seconds 20 --trace 0
//
// --trace 0 runs the program as shipped (metrics on, no trace buffer, the
// fleet handed to the server unwrapped) and reports the end-to-end
// metrics. --trace 1 installs a trace buffer and the benchmark's timing
// wrapper, calls single layers directly, runs one experiment runner after
// the server drains, reports the per-layer metrics and writes the spans
// as a Chrome trace. BENCHMARK.json at the repository root declares the
// workloads and metrics; NOTES.md in this directory defines each metric,
// says why the Monte-Carlo and training sweeps are measured only inside
// the traced runs, and maps the old BENCH_pr*.json fields onto the new
// names.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"vortex/internal/obs"
)

// watchdog bounds one invocation: the benchmark must end well inside the
// three minutes a run is allowed, with a non-zero code and no result.
const watchdog = 170 * time.Second

//go:embed pins.json
var pinsJSON []byte

// pins are the correctness references the output gates compare against.
type pins struct {
	// Seed is the benchmark seed the digests and boot accuracies were
	// taken at.
	Seed uint64 `json:"seed"`
	// Digests maps a sweep to the SHA-256 of its runner's CSV at Seed,
	// taken from the seed code's output.
	Digests map[string]string `json:"digests"`
	// BootAccuracy maps a serve scale to the Boot.Accuracy of the fleet
	// booted at Seed, taken from the seed code's output.
	BootAccuracy map[string]float64 `json:"boot_accuracy"`
	// AccuracyTolerance maps a serve scale to the bound on |served
	// accuracy - Boot.Accuracy| (NOTES.md says how it was measured).
	AccuracyTolerance map[string]float64 `json:"accuracy_tolerance"`
}

func defaultPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return p, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// options are one invocation's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for the Chrome trace
}

// window is the timed part of a run.
func (o options) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// repSeed is the seed of the i-th repeat inside one invocation (a boot,
// a sweep run): every repeat sees fresh inputs, so a cache keyed on the
// inputs cannot turn repeats into hits.
func repSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) + 1 }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// gate is one output check.
type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// record is everything one invocation measured and checked.
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Env       env               `json:"env"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Conns     int64             `json:"conns,omitempty"`
	Gates     []gate            `json:"gates"`
	Metrics   map[string]metric `json:"metrics"`
	// Info holds values recorded but not gated (p99 in the untraced
	// run, accuracies, the boot accuracy).
	Info map[string]float64 `json:"info,omitempty"`

	spans *obs.TraceBuffer
}

func newRecord(o options) *record {
	return &record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Env: collectEnv(), Metrics: map[string]metric{}, Info: map[string]float64{}}
}

// set reports a metric under its declared unit.
func (r *record) set(name string, v float64) { r.Metrics[name] = metric{v, unitOf(name)} }

// complete makes the record carry exactly the mode's metric list: a
// per-layer metric the workload never touched is an idle layer (0); a
// missing end-to-end metric is a benchmark failure.
func (r *record) complete() {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	want := map[string]bool{}
	for _, d := range defs {
		want[d.name] = true
		if _, ok := r.Metrics[d.name]; ok {
			continue
		}
		if r.Trace {
			r.set(d.name, 0)
		} else {
			r.check("metric."+d.name, false, "end-to-end metric %s was not measured", d.name)
		}
	}
	for name := range r.Metrics {
		if !want[name] {
			delete(r.Metrics, name)
		}
	}
}

func (r *record) check(name string, ok bool, format string, args ...any) {
	r.Gates = append(r.Gates, gate{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *record) correct() bool {
	for _, g := range r.Gates {
		if !g.OK {
			return false
		}
	}
	return len(r.Gates) > 0
}

func main() {
	p, err := defaultPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintln(os.Stderr, "perfbench: watchdog expired")
		os.Exit(3)
	})
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, p))
}

// run executes one invocation and returns the exit code: 0 when every
// gate passed, 1 when a gate failed (the result line says correct=false),
// 2 for a usage error or a failure before any result (no result line).
func run(args []string, stdout, stderr io.Writer, p pins) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: serve_bin or serve_json")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory the traced run writes its Chrome trace to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	w, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --workload serve_bin|serve_json, --trace 0|1 and --seconds > 0")
		return 2
	}
	rec := newRecord(o)
	if err := w.run(context.Background(), o, p, rec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rec.complete()
	for name, m := range rec.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON cannot carry it; the failed gate says why it is missing.
			rec.check("finite."+name, false, "metric %s is %v", name, m.Value)
			delete(rec.Metrics, name)
		}
	}
	if err := writeTrace(o, rec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	printReport(stdout, rec)
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.correct(), rec.Attempted, rec.Failed, rec.Metrics}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// printReport writes the human-readable part of the output: the run,
// the machine, every gate and every metric with its unit, then the whole
// record as one JSON line.
func printReport(w io.Writer, r *record) {
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d seconds=%g trace=%v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	e := r.Env
	fmt.Fprintf(w, "env: go=%s gomaxprocs=%d nproc=%d cpu=%q isa=%s kernel=%s commit=%s load=%q\n",
		e.GoVersion, e.GOMAXPROCS, e.NProc, e.CPU, e.KernelISA, e.Kernel, e.Commit, e.Load)
	for _, g := range r.Gates {
		status := "ok"
		if !g.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "gate %-28s %-6s %s\n", g.Name, status, g.Detail)
	}
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "metric %-26s %16.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	info := make([]string, 0, len(r.Info))
	for k := range r.Info {
		info = append(info, k)
	}
	sort.Strings(info)
	for _, k := range info {
		fmt.Fprintf(w, "info   %-26s %16.6g\n", k, r.Info[k])
	}
	if raw, err := json.Marshal(r); err == nil {
		fmt.Fprintf(w, "record %s\n", raw)
	}
}

// writeTrace saves a traced run's spans as a Chrome trace under o.out.
func writeTrace(o options, r *record) error {
	if r.spans == nil {
		return nil
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.out, fmt.Sprintf("%s-seed%d.trace.json", o.workload, o.seed)))
	if err != nil {
		return err
	}
	if err := r.spans.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
