package experiment

import (
	"context"
	"sync"
	"sync/atomic"

	"vortex/internal/obs"
)

// RunConfig selects the resilient-execution features of a run. Front
// ends attach one to the context with WithRunConfig before calling a
// registered Runner; the registry decoration turns it into live per-run
// state that every parallel sweep inside the run inherits. The zero
// value means the classic behavior: no checkpointing, no retries, fail
// on the first error.
type RunConfig struct {
	// CheckpointDir, when non-empty, persists every completed trial to a
	// JSON checkpoint file under this directory (one file per runner
	// name + scale + seed) and resumes from it on the next run: already
	// completed trials are skipped and the resumed output is
	// byte-identical to an uninterrupted run. The file is removed when a
	// run completes with nothing missing.
	CheckpointDir string
	// Partial degrades instead of failing: a trial that exhausts its
	// retries, or a sweep cut short by the deadline or an interrupt,
	// yields a result with the completed trials and NA-rendered missing
	// cells rather than no result at all.
	Partial bool
	// Retry is the per-trial retry policy.
	Retry RetryPolicy
}

// runConfigKey carries a RunConfig through a context.
type runConfigKey struct{}

// WithRunConfig returns a context carrying cfg for the registry
// decoration to pick up. It is the front end's single hook into the
// resilient execution core: cmd/vortexsim builds one from its
// -checkpoint-dir/-partial/-retries flags.
func WithRunConfig(ctx context.Context, cfg RunConfig) context.Context {
	return context.WithValue(ctx, runConfigKey{}, cfg)
}

// runConfigFrom extracts the RunConfig installed by WithRunConfig.
func runConfigFrom(ctx context.Context) (RunConfig, bool) {
	cfg, ok := ctx.Value(runConfigKey{}).(RunConfig)
	return cfg, ok
}

// sweepState is the live per-run state behind the resilient sweeps: the
// run identity (for seed derivation and checkpoint keying), the open
// checkpoint store, the sweep sequence counter that keys each
// parallelTrials call within the run, and the running count of trials
// abandoned in partial mode. instrumentRun creates one per run and
// installs it in the context; parallelTrials reads it.
type sweepState struct {
	cfg   RunConfig
	name  string
	scale Scale
	seed  uint64

	// store persists completed trials; nil when checkpointing is off.
	// storeOff flips when a marshal/write failure disables it mid-run.
	store    *checkpointStore
	storeOff atomic.Bool
	warnOnce sync.Once

	seq     atomic.Int64 // parallel sweeps started so far this run
	missing atomic.Int64 // trials abandoned in partial mode
}

// sweepStateKey carries a *sweepState through a context.
type sweepStateKey struct{}

// newSweepState builds the per-run state; the checkpoint store is
// attached separately by instrumentRun (tests attach their own).
func newSweepState(name string, scale Scale, seed uint64, cfg RunConfig) *sweepState {
	return &sweepState{cfg: cfg, name: name, scale: scale, seed: seed}
}

// withSweepState installs st for the sweeps inside a run.
func withSweepState(ctx context.Context, st *sweepState) context.Context {
	return context.WithValue(ctx, sweepStateKey{}, st)
}

// sweepStateFrom extracts the run's sweep state, nil outside a
// decorated run.
func sweepStateFrom(ctx context.Context) *sweepState {
	st, _ := ctx.Value(sweepStateKey{}).(*sweepState)
	return st
}

// nextSweep claims the next sweep sequence number. Drivers issue their
// parallel sweeps in a deterministic order, so the sequence is a stable
// checkpoint key across runs.
func (s *sweepState) nextSweep() int { return int(s.seq.Add(1)) - 1 }

// checkpoint returns the store to persist trials to, nil when
// checkpointing is off or was disabled after a failure.
func (s *sweepState) checkpoint() *checkpointStore {
	if s == nil || s.store == nil || s.storeOff.Load() {
		return nil
	}
	return s.store
}

// disableStore turns checkpointing off for the rest of the run after a
// marshal or write failure, warning once; trials keep running.
func (s *sweepState) disableStore(msg string, err error) {
	s.storeOff.Store(true)
	s.warnOnce.Do(func() {
		obs.L().Warn("checkpointing disabled for this run", "exp", s.name, "reason", msg, "err", err)
	})
}

// partialSweep reports whether the run degrades instead of failing.
func partialSweep(ctx context.Context) bool {
	st := sweepStateFrom(ctx)
	return st != nil && st.cfg.Partial
}

// partialBreak reports whether a driver's per-row loop should stop and
// render what it has: the context is dead and the run is in partial
// mode. Outside partial mode drivers keep returning ctx.Err().
func partialBreak(ctx context.Context) bool {
	return partialSweep(ctx) && ctx.Err() != nil
}
