package experiment

import (
	"errors"
	"fmt"
	"time"
)

// Trial identifies one Monte-Carlo trial handed to a sweep function:
// the grid index, which attempt this is (0 for the first try), and the
// deterministically re-derived per-attempt seed. Sweep functions that
// only need the grid index can ignore the rest; ones that want retries
// to explore a different random draw mix Seed into their rng.
type Trial struct {
	// Index is the trial's position in the sweep grid, 0..n-1.
	Index int
	// Attempt counts retries: 0 on the first try.
	Attempt int
	// Seed is the per-attempt trial seed, derived deterministically from
	// the run seed, the sweep sequence number, Index and Attempt.
	Seed uint64
}

// TrialError attributes one failed Monte-Carlo trial: which trial index
// and derived seed failed, after how many attempts, the underlying
// error, and — when the trial panicked — the recovered stack. A worker
// panic inside parallelTrials is converted into a TrialError instead of
// crashing the process, so one bad trial out of thousands is
// diagnosable and, in partial mode, survivable.
type TrialError struct {
	// Index is the failing trial's grid index.
	Index int
	// Seed is the derived seed of the failing trial (first attempt).
	Seed uint64
	// Attempts is how many times the trial ran before giving up.
	Attempts int
	// Stack is the recovered goroutine stack when the trial panicked,
	// empty for ordinary errors.
	Stack string
	// Err is the underlying failure ("panic: ..." for panics).
	Err error
}

// Error implements error with the trial index and seed in the message,
// appending the panic stack when there is one.
func (e *TrialError) Error() string {
	msg := fmt.Sprintf("trial %d (seed %#x) failed after %d attempt(s): %v",
		e.Index, e.Seed, e.Attempts, e.Err)
	if e.Stack != "" {
		msg += "\n" + e.Stack
	}
	return msg
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *TrialError) Unwrap() error { return e.Err }

// RetryPolicy is the per-trial retry policy of a run: how many times a
// failing trial may run in total and how the backoff between attempts
// grows. Context cancellation and Fatal-marked errors are never
// retried; everything else is treated as a potentially transient trial
// failure.
type RetryPolicy struct {
	// MaxAttempts is the total number of times one trial may run, first
	// try included. Zero or negative means 1: no retries.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further
	// retry doubles it. Zero or negative means 10ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Zero or negative means 2s.
	MaxBackoff time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 1
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 10 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	return p
}

// backoff returns the capped exponential delay before the retry that
// follows attempt (0-based): BaseBackoff << attempt, at most MaxBackoff.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	if attempt >= 30 { // shifting further would overflow; already >> any cap
		return p.MaxBackoff
	}
	d := p.BaseBackoff << uint(attempt)
	if d <= 0 || d > p.MaxBackoff {
		return p.MaxBackoff
	}
	return d
}

// fatalError marks an error as non-retryable.
type fatalError struct{ err error }

func (e *fatalError) Error() string { return e.err.Error() }
func (e *fatalError) Unwrap() error { return e.err }

// Fatal marks err as non-retryable: a sweep fails on it immediately,
// skipping the retry policy and partial degradation. Use it for
// programmer errors — registry misuse, shape mismatches — where
// retrying the trial (or degrading around it) would only hide the bug.
func Fatal(err error) error {
	if err == nil {
		return nil
	}
	return &fatalError{err: err}
}

// isFatal reports whether err carries the Fatal marker.
func isFatal(err error) bool {
	var fe *fatalError
	return errors.As(err, &fe)
}

// retrySeed derives the deterministic per-attempt trial seed from the
// run seed and the trial coordinates with a splitmix64-style mixer:
// every (run seed, sweep, index, attempt) tuple maps to one fixed
// value, so retries are reproducible and attributable.
func retrySeed(runSeed uint64, sweep, index, attempt int) uint64 {
	x := runSeed
	x ^= 0x9e3779b97f4a7c15 * (uint64(sweep) + 1)
	x ^= 0xbf58476d1ce4e5b9 * (uint64(index) + 1)
	x ^= 0x94d049bb133111eb * (uint64(attempt) + 1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// trialError wraps the final failure of a trial in a *TrialError, or
// updates the attempt count when the failure already is one (a panic
// recovered by safeTrial).
func trialError(err error, index int, seed uint64, attempts int) *TrialError {
	var te *TrialError
	if errors.As(err, &te) {
		te.Attempts = attempts
		return te
	}
	return &TrialError{Index: index, Seed: seed, Attempts: attempts, Err: err}
}
