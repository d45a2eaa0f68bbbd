package hw

import (
	"sync"
	"time"

	"vortex/internal/obs"
)

// Metrics is the per-backend instrumentation bundle the hardware layer
// records into: operation counters (reads, programming pulses/batches,
// verify correction rounds) plus per-op latency histograms, all named
// "hw.<backend>.<metric>" in the process-default obs registry. Every
// array of a given backend shares one bundle, so a Monte-Carlo sweep's
// thousands of short-lived arrays aggregate into a handful of series —
// which is exactly the circuit-vs-analytic comparison the snapshot is
// for.
//
// Counters and histograms are atomic; bundles are safe to share across
// the parallel trial workers. All methods are nil-receiver safe.
type Metrics struct {
	reads        *obs.Counter
	readNS       *obs.Histogram
	batchReads   *obs.Counter
	batchReadNS  *obs.Histogram
	pulses       *obs.Counter
	batches      *obs.Counter
	programNS    *obs.Histogram
	verifyCells  *obs.Counter
	verifyIters  *obs.Counter
	verifyNS     *obs.Histogram
	solverSweeps *obs.Histogram
}

var (
	metricsMu sync.Mutex
	metricsBy = map[string]*Metrics{}
)

// MetricsFor returns the shared metrics bundle for a backend name
// ("circuit", "analytic", ...), creating it on first use.
func MetricsFor(backend string) *Metrics {
	return metricsForPrefix("hw." + backend + ".")
}

// ArrayPrefix is the obs metric namespace of one identified array on a
// backend: "hw.<backend>.<array-id>.". Layers that track many long-lived
// arrays at once (the fleet) derive their per-array series names from it
// so they cannot collide with the per-backend aggregates or with each
// other; MetricsForArray uses the same prefix for the standard bundle.
func ArrayPrefix(backend, arrayID string) string {
	return "hw." + backend + "." + arrayID + "."
}

// MetricsForArray returns the metrics bundle of one identified array,
// namespaced per ArrayPrefix ("hw.<backend>.<array-id>.<metric>") in the
// process-default registry, creating it on first use. Unlike the
// per-backend MetricsFor bundle — which aggregates every short-lived
// Monte-Carlo array of a backend into one series — a per-array bundle
// gives a long-lived array (a fleet member) its own series, so its
// health trajectory is observable in isolation.
func MetricsForArray(backend, arrayID string) *Metrics {
	return metricsForPrefix(ArrayPrefix(backend, arrayID))
}

// metricsForPrefix builds (or returns the cached) bundle whose series
// all share the given name prefix.
func metricsForPrefix(prefix string) *Metrics {
	metricsMu.Lock()
	defer metricsMu.Unlock()
	if m, ok := metricsBy[prefix]; ok {
		return m
	}
	reg := obs.Default()
	m := &Metrics{
		reads:        reg.Counter(prefix + "reads"),
		readNS:       reg.Histogram(prefix + "read_ns"),
		batchReads:   reg.Counter(prefix + "batch_reads"),
		batchReadNS:  reg.Histogram(prefix + "batch_read_ns"),
		pulses:       reg.Counter(prefix + "pulses"),
		batches:      reg.Counter(prefix + "batches"),
		programNS:    reg.Histogram(prefix + "program_ns"),
		verifyCells:  reg.Counter(prefix + "verify.cells"),
		verifyIters:  reg.Counter(prefix + "verify.iters"),
		verifyNS:     reg.Histogram(prefix + "verify_ns"),
		solverSweeps: reg.Histogram(prefix + "solver.sweeps"),
	}
	metricsBy[prefix] = m
	return m
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

// ObserveRead accounts one Read (or EffectiveWeights) operation started
// at start.
func (m *Metrics) ObserveRead(start time.Time) {
	if m == nil {
		return
	}
	m.reads.Inc()
	m.readNS.RecordDuration(time.Since(start))
}

// ObserveBatchRead accounts one ReadBatch call of n input vectors
// started at start: the batch-read counter advances by one, the plain
// read counter by n (a batch is n logical reads), and the whole-batch
// latency lands in the batch_read_ns histogram.
func (m *Metrics) ObserveBatchRead(start time.Time, n int) {
	if m == nil {
		return
	}
	m.batchReads.Inc()
	m.reads.Add(int64(n))
	m.batchReadNS.RecordDuration(time.Since(start))
}

// ObserveSolverSweeps records the block-sweep count of one converged
// circuit solve in the solver.sweeps histogram — the series that shows
// warm-started sweeps collapsing versus cold solves.
func (m *Metrics) ObserveSolverSweeps(sweeps int) {
	if m == nil {
		return
	}
	m.solverSweeps.Record(float64(sweeps))
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
