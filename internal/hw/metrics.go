package hw

import (
	"sync"
	"time"

	"vortex/internal/obs"
)

// Metrics is the per-backend instrumentation bundle the hardware layer
// records into: operation counters (programming pulses/batches, verify
// correction rounds) plus per-op latency histograms, all named
// "hw.<backend>.<metric>" in the process-default obs registry. Every
// array of a given backend shares one bundle, so a Monte-Carlo sweep's
// thousands of short-lived arrays aggregate into a handful of series —
// which is exactly the circuit-vs-analytic comparison the snapshot is
// for.
//
// Counters and histograms are atomic; bundles are safe to share across
// the parallel trial workers. All methods are nil-receiver safe.
type Metrics struct {
	pulses      *obs.Counter
	batches     *obs.Counter
	programNS   *obs.Histogram
	verifyCells *obs.Counter
	verifyIters *obs.Counter
	verifyNS    *obs.Histogram
}

var (
	metricsMu sync.Mutex
	metricsBy = map[string]*Metrics{}
)

// MetricsFor returns the shared metrics bundle for a backend name
// ("circuit", "analytic", ...), creating it on first use.
func MetricsFor(backend string) *Metrics {
	metricsMu.Lock()
	defer metricsMu.Unlock()
	if m, ok := metricsBy[backend]; ok {
		return m
	}
	reg, prefix := obs.Default(), "hw."+backend+"."
	m := &Metrics{
		pulses:      reg.Counter(prefix + "pulses"),
		batches:     reg.Counter(prefix + "batches"),
		programNS:   reg.Histogram(prefix + "program_ns"),
		verifyCells: reg.Counter(prefix + "verify.cells"),
		verifyIters: reg.Counter(prefix + "verify.iters"),
		verifyNS:    reg.Histogram(prefix + "verify_ns"),
	}
	metricsBy[backend] = m
	return m
}

// ArrayPrefix is the obs metric namespace of one identified array on a
// backend: "hw.<backend>.<array-id>.". Layers that track many long-lived
// arrays at once (the fleet) derive their per-array series names from it
// so they cannot collide with the per-backend aggregates or with each
// other.
func ArrayPrefix(backend, arrayID string) string {
	return "hw." + backend + "." + arrayID + "."
}

// Start opens a latency measurement for the matching Observe*. A nil
// bundle, which records nothing, skips the clock read and returns the
// zero time.
func (m *Metrics) Start() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveProgram accounts one programming batch of n pulses started at
// start.
func (m *Metrics) ObserveProgram(start time.Time, n int) {
	if m == nil {
		return
	}
	m.batches.Inc()
	m.pulses.Add(int64(n))
	m.programNS.RecordDuration(time.Since(start))
}

// ObserveVerify accounts one ProgramVerify pass over cells cells that
// spent iters correction rounds in total.
func (m *Metrics) ObserveVerify(start time.Time, cells, iters int) {
	if m == nil {
		return
	}
	m.verifyCells.Add(int64(cells))
	m.verifyIters.Add(int64(iters))
	m.verifyNS.RecordDuration(time.Since(start))
}
