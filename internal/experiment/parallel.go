package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"vortex/internal/obs"
)

// Live-progress reporting for the Monte-Carlo fan-outs. A front end
// installs one sink process-wide (SetProgress); every parallelMap then
// reports trials-completed/total with an ETA through it, throttled to
// progressEvery per sweep. With no sink installed (the default, and the
// state every test runs in unless it opts in) reporting is disabled and
// costs one atomic pointer load per sweep.
var (
	progressSink  atomic.Pointer[obs.ProgressFunc]
	progressEvery atomic.Int64 // throttle interval [ns]
)

func init() { progressEvery.Store(int64(500 * time.Millisecond)) }

// SetProgress installs fn as the process-wide progress sink (nil
// removes it) and returns the previous sink. Reports are throttled,
// monotonic per sweep, and stop when a sweep fails or is canceled.
func SetProgress(fn obs.ProgressFunc) obs.ProgressFunc {
	var prev *obs.ProgressFunc
	if fn == nil {
		prev = progressSink.Swap(nil)
	} else {
		prev = progressSink.Swap(&fn)
	}
	if prev == nil {
		return nil
	}
	return *prev
}

// SetProgressInterval adjusts the report throttle (default 500ms) and
// returns the previous interval; non-positive means report on every
// completed trial (used by tests).
func SetProgressInterval(d time.Duration) time.Duration {
	return time.Duration(progressEvery.Swap(int64(d)))
}

// newProgress builds the per-sweep tracker, nil when no sink is
// installed.
func newProgress(n int) *obs.Progress {
	fn := progressSink.Load()
	if fn == nil {
		return nil
	}
	return obs.NewProgress(n, time.Duration(progressEvery.Load()), *fn)
}

// parallelTrials is the resilient Monte-Carlo core every sweep runs on:
// it evaluates fn over trials 0..n-1 concurrently on up to GOMAXPROCS
// workers and returns the values in index order plus a per-trial
// completion mask. Every fn call must be independent and deterministic
// in its trial index (the experiment drivers derive a fresh rng seed
// from the index), so the output is identical to a sequential loop
// regardless of scheduling.
//
// Resilience, configured per run through WithRunConfig and installed by
// the registry decoration:
//
//   - Panic isolation: a panicking trial never kills the process;
//     recover converts it into a *TrialError carrying the trial index,
//     derived seed and stack.
//   - Retry: failed trials re-run under the run's RetryPolicy with
//     capped exponential backoff and a deterministically re-derived
//     per-attempt seed; context cancellation and Fatal-marked errors
//     never retry.
//   - Checkpointing: with a store open, each completed trial is
//     persisted atomically as it finishes, and already-stored trials
//     are skipped on resume — the trial values replayed from the file
//     are bit-identical to recomputing them, so resumed output matches
//     an uninterrupted run byte for byte.
//   - Partial degradation: in partial mode a trial that exhausts its
//     retries, or a sweep cut short by the deadline, yields
//     done[i] == false instead of failing the whole sweep.
//
// Without a run config the classic contract holds: the first error wins
// (now wrapped in a *TrialError naming the trial), cancels the
// remaining work — indices not yet handed to a worker are dropped — and
// is returned after in-flight calls drain. External cancellation
// returns ctx.Err() the same way.
//
// The sweep is traced: parallelTrials opens a "sweep" span under
// whatever span rides ctx (the registry decoration's experiment span)
// and every trial attempt runs under a leaf "trial" span — the
// sweep → trial tree the -trace timeline renders. Retries, panics and
// checkpoint replays are point events in the same ring, so a crash dump
// shows them inside that tree.
func parallelTrials[T any](ctx context.Context, n int, fn func(t Trial) (T, error)) ([]T, []bool, error) {
	out := make([]T, n)
	done := make([]bool, n)
	if n == 0 {
		return out, done, ctx.Err()
	}
	var (
		st      = sweepStateFrom(ctx)
		retry   = RetryPolicy{}.withDefaults()
		partial bool
		runSeed uint64
		seq     int
	)
	if st != nil {
		retry = st.cfg.Retry.withDefaults()
		partial = st.cfg.Partial
		runSeed = st.seed
		seq = st.nextSweep()
	}
	ctx, ssp := obs.StartSpanCtx(ctx, "sweep", "seq", seq, "trials", n)
	defer ssp.End()
	progress := newProgress(n)
	resumed := 0
	if store := st.checkpoint(); store != nil {
		for i, raw := range store.resume(seq, n) {
			var v T
			if err := json.Unmarshal(raw, &v); err != nil {
				continue // recompute this trial
			}
			out[i], done[i] = v, true
			resumed++
		}
		if resumed > 0 {
			obs.Default().Counter("experiment.checkpoint.hits").Add(int64(resumed))
			obs.RecordEvent("checkpoint", "resume", "seq", seq, "trials", resumed)
			progress.Add(resumed)
		}
	}
	pending := make([]int, 0, n-resumed)
	for i := range done {
		if !done[i] {
			pending = append(pending, i)
		}
	}
	if len(pending) == 0 {
		// Fully replayed from the checkpoint: nothing ran, nothing to
		// cancel — the stored values stand even under a dead context.
		progress.Finish()
		return out, done, nil
	}

	// A private cancel scope lets the first fatal error stop the
	// dispatch loop without affecting the caller's context.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	// runTrial executes every attempt of one trial. Each done[i] is
	// written by exactly one worker and read only after wg.Wait, so the
	// mask needs no lock.
	runTrial := func(i int) {
		var lastErr error
		attempts := 0
		for attempt := 0; ; attempt++ {
			if ctx.Err() != nil {
				// The sweep is stopping; the cancellation is reported once,
				// by the sweep itself, not per drained trial.
				return
			}
			attempts = attempt + 1
			t := Trial{Index: i, Attempt: attempt, Seed: retrySeed(runSeed, seq, i, attempt)}
			tsp := obs.StartSpanFrom(ctx, "trial", "trial", i, "attempt", attempt)
			v, err := safeTrial(fn, t)
			tsp.End()
			if err == nil {
				out[i], done[i] = v, true
				saveTrial(st, seq, n, i, v)
				progress.Add(1)
				return
			}
			var te *TrialError
			if errors.As(err, &te) && te.Stack != "" {
				obs.Default().Counter("experiment.trials.panics").Inc()
				obs.RecordEvent("panic", "trial", "trial", i, "attempt", attempt,
					"seed", fmt.Sprintf("%#x", t.Seed), "err", te.Err)
			}
			lastErr = err
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				if ctx.Err() != nil {
					return // the trial saw the dying context from the inside
				}
				break // a ctx-shaped error under a live context: treat as fatal
			}
			if isFatal(err) || attempt+1 >= retry.MaxAttempts {
				break
			}
			obs.Default().Counter("experiment.trials.retries").Inc()
			obs.RecordEvent("retry", "trial", "trial", i, "attempt", attempt+1, "err", err)
			if !sleepCtx(ctx, retry.backoff(attempt)) {
				return
			}
		}
		te := trialError(lastErr, i, retrySeed(runSeed, seq, i, 0), attempts)
		if partial && !isFatal(lastErr) {
			obs.Logger().Warn("trial abandoned (partial mode)", "trial", te.Index,
				"seed", te.Seed, "attempts", te.Attempts, "err", te.Err)
			obs.RecordEvent("trial.abandoned", "trial", "trial", te.Index,
				"attempts", te.Attempts, "err", te.Err)
			return
		}
		fail(te)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pending) {
		workers = len(pending)
	}
	if workers < 1 {
		workers = 1
	}
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				runTrial(i)
			}
		}()
	}
dispatch:
	for _, i := range pending {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}
	nDone := 0
	for _, d := range done {
		if d {
			nDone++
		}
	}
	if err := ctx.Err(); err != nil && !partial {
		return nil, nil, err
	}
	if nDone < n {
		// Partial mode absorbed failures or a dead deadline: account for
		// the holes and hand back what completed.
		obs.Default().Counter("experiment.trials.missing").Add(int64(n - nDone))
		if st != nil {
			st.missing.Add(int64(n - nDone))
		}
		return out, done, nil
	}
	// Only a fully completed sweep emits the final tick; failed and
	// canceled sweeps go quiet instead of reporting a stale count.
	progress.Finish()
	return out, done, nil
}

// safeTrial runs one attempt with panic isolation: a panic inside the
// trial function becomes a *TrialError carrying the recovered value,
// the trial index and seed, and the goroutine stack, instead of
// crashing the whole process.
func safeTrial[T any](fn func(Trial) (T, error), t Trial) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &TrialError{
				Index:    t.Index,
				Seed:     t.Seed,
				Attempts: t.Attempt + 1,
				Stack:    string(debug.Stack()),
				Err:      fmt.Errorf("panic: %v", r),
			}
		}
	}()
	return fn(t)
}

// saveTrial checkpoints one completed trial value. The value is
// verified to survive a JSON round trip before it is trusted — a trial
// type with unexported fields would otherwise resume silently wrong —
// and any marshal or write failure disables the store for the rest of
// the run (with one warning) rather than failing the sweep.
func saveTrial[T any](st *sweepState, seq, n, i int, v T) {
	store := st.checkpoint()
	if store == nil {
		return
	}
	raw, err := json.Marshal(v)
	if err != nil {
		st.disableStore("trial value does not marshal", err)
		return
	}
	var back T
	if err := json.Unmarshal(raw, &back); err != nil {
		st.disableStore("trial value does not unmarshal", err)
		return
	}
	if !reflect.DeepEqual(back, v) {
		st.disableStore("trial value does not survive a JSON round trip", nil)
		return
	}
	if err := store.put(seq, n, i, raw); err != nil {
		st.disableStore("checkpoint write failed", err)
	}
}

// sleepCtx sleeps for d unless ctx ends first, reporting whether the
// full backoff elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// parallelMap evaluates fn(0..n-1) concurrently and returns the results
// in index order, failing unless every trial completed. It is the
// complete-or-error view of parallelTrials for sweeps whose aggregation
// cannot tolerate holes; grid drivers that can degrade call
// parallelTrials directly and consume the completion mask.
func parallelMap[T any](ctx context.Context, n int, fn func(i int) (T, error)) ([]T, error) {
	vals, done, err := parallelTrials(ctx, n, func(t Trial) (T, error) { return fn(t.Index) })
	if err != nil {
		return nil, err
	}
	for i := range done {
		if !done[i] {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, errors.New("experiment: sweep incomplete")
		}
	}
	return vals, nil
}

// parallelMean runs fn over n trials concurrently and returns the mean
// of the completed results. It is routed through parallelTrials, so
// panic isolation, retries, checkpointing and partial degradation exist
// in exactly one place; in partial mode the mean covers the trials that
// completed, and a cell with none completed is NaN (rendered NA).
func parallelMean(ctx context.Context, n int, fn func(i int) (float64, error)) (float64, error) {
	vals, done, err := parallelTrials(ctx, n, func(t Trial) (float64, error) { return fn(t.Index) })
	if err != nil {
		return 0, err
	}
	sum, k := 0.0, 0
	for i, v := range vals {
		if done[i] {
			sum += v
			k++
		}
	}
	if k == 0 {
		return math.NaN(), nil
	}
	return sum / float64(k), nil
}
