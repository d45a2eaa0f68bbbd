package hw

import (
	"sync"
	"time"

	"vortex/internal/obs"
)

// Metrics is the instrumentation bundle every crossbar records into:
// operation counters (programming pulses and batches, verify cells and
// correction rounds) plus per-op latency histograms, all named
// "hw.circuit.<metric>" in the process-default obs registry. Every array
// shares the one bundle, so a Monte-Carlo sweep's thousands of
// short-lived arrays aggregate into a handful of series.
//
// Counters and histograms are atomic; the bundle is safe to share across
// the parallel trial workers. All methods are nil-receiver safe.
type Metrics struct {
	pulses      *obs.Counter
	batches     *obs.Counter
	programNS   *obs.Histogram
	verifyCells *obs.Counter
	verifyIters *obs.Counter
	verifyNS    *obs.Histogram
}

// prefix is the namespace of every hardware series, named for the
// crossbar's full circuit model; perfbench and dashboards read these
// names.
const prefix = "hw.circuit."

// CrossbarMetrics returns the bundle every crossbar shares, registering its
// series in the process-default obs registry on first use.
func CrossbarMetrics() *Metrics { return crossbarMetrics() }

var crossbarMetrics = sync.OnceValue(func() *Metrics {
	reg := obs.Default()
	return &Metrics{
		pulses:      reg.Counter(prefix + "pulses"),
		batches:     reg.Counter(prefix + "batches"),
		programNS:   reg.Histogram(prefix + "program_ns"),
		verifyCells: reg.Counter(prefix + "verify.cells"),
		verifyIters: reg.Counter(prefix + "verify.iters"),
		verifyNS:    reg.Histogram(prefix + "verify_ns"),
	}
})

// ArrayPrefix is the obs metric namespace of one identified array:
// "hw.circuit.<array-id>.". Layers that track many long-lived arrays at
// once (the fleet) derive their per-array series names from it so they
// cannot collide with each other.
func ArrayPrefix(arrayID string) string {
	return prefix + arrayID + "."
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
