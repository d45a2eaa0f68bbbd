package experiment

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestTrialErrorMessageCarriesIndexAndSeed(t *testing.T) {
	base := errors.New("boom")
	te := &TrialError{Index: 7, Seed: 0xdeadbeef, Attempts: 3, Err: base}
	msg := te.Error()
	if !strings.Contains(msg, "trial 7") {
		t.Fatalf("message %q lacks the trial index", msg)
	}
	if !strings.Contains(msg, "0xdeadbeef") {
		t.Fatalf("message %q lacks the seed", msg)
	}
	if !strings.Contains(msg, "3 attempt(s)") {
		t.Fatalf("message %q lacks the attempt count", msg)
	}
	if !errors.Is(te, base) {
		t.Fatal("TrialError must unwrap to the underlying error")
	}
}

func TestTrialErrorAppendsStack(t *testing.T) {
	te := &TrialError{Index: 0, Err: errors.New("panic: x"), Stack: "goroutine 1 [running]:\nmain.main()"}
	if !strings.Contains(te.Error(), "goroutine 1") {
		t.Fatal("panic stack missing from the message")
	}
}

func TestRetrySeedDeterministicAndDistinct(t *testing.T) {
	// Same coordinates -> same seed, always.
	a := retrySeed(42, 1, 2, 3)
	b := retrySeed(42, 1, 2, 3)
	if a != b {
		t.Fatalf("retrySeed not deterministic: %#x vs %#x", a, b)
	}
	// Any single coordinate change must move the seed.
	seen := map[uint64]string{a: "base"}
	for _, tc := range []struct {
		name                  string
		run                   uint64
		sweep, index, attempt int
	}{
		{"run", 43, 1, 2, 3},
		{"sweep", 42, 2, 2, 3},
		{"index", 42, 1, 3, 3},
		{"attempt", 42, 1, 2, 4},
	} {
		s := retrySeed(tc.run, tc.sweep, tc.index, tc.attempt)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between %s and %s", tc.name, prev)
		}
		seen[s] = tc.name
	}
}

func TestRetryPolicyBackoffCapped(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 10, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}
	for attempt, want := range []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		50 * time.Millisecond, 50 * time.Millisecond,
	} {
		if got := p.backoff(attempt); got != want {
			t.Fatalf("backoff(%d) = %v, want %v", attempt, got, want)
		}
	}
	// Large attempt numbers must not overflow into negative durations.
	if got := p.backoff(100); got != p.MaxBackoff {
		t.Fatalf("backoff(100) = %v, want the cap", got)
	}
}

func TestRetryPolicyDefaults(t *testing.T) {
	p := RetryPolicy{}.withDefaults()
	if p.MaxAttempts != 1 {
		t.Fatalf("default MaxAttempts = %d, want 1 (no retries)", p.MaxAttempts)
	}
	if p.BaseBackoff <= 0 || p.MaxBackoff <= 0 {
		t.Fatal("defaults must set positive backoffs")
	}
}

// TestFatalAndRetryableClassification: parallelTrials retries a plain
// error, and runs a Fatal-marked one or a context error returned under a
// live context once; the Fatal marker survives wrapping.
func TestFatalAndRetryableClassification(t *testing.T) {
	plain := errors.New("flaky")
	for _, tc := range []struct {
		err   error
		calls int64
	}{
		{plain, 3},
		{Fatal(plain), 1},
		{context.Canceled, 1},
		{context.DeadlineExceeded, 1},
		{fmt.Errorf("wrapped: %w", context.Canceled), 1},
	} {
		ctx, _ := resilientCtx(context.Background(), RunConfig{
			Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond},
		}, 1)
		var calls atomic.Int64
		_, _, err := parallelTrials(ctx, 1, func(tr Trial) (int, error) {
			calls.Add(1)
			return 0, tc.err
		})
		if err == nil || calls.Load() != tc.calls {
			t.Fatalf("%v: err %v after %d calls, want an error after %d", tc.err, err, calls.Load(), tc.calls)
		}
	}
	if !isFatal(fmt.Errorf("wrapped: %w", Fatal(plain))) {
		t.Fatal("the Fatal marker must survive wrapping")
	}
	if Fatal(nil) != nil {
		t.Fatal("Fatal(nil) must stay nil")
	}
}

// resilientCtx builds a context carrying a sweep state with the given
// config, as instrumentRun would install for a decorated run.
func resilientCtx(ctx context.Context, cfg RunConfig, seed uint64) (context.Context, *sweepState) {
	st := newSweepState("test", Quick, seed, cfg)
	return withSweepState(ctx, st), st
}

func TestPanicIsolatedIntoTrialError(t *testing.T) {
	_, _, err := parallelTrials(context.Background(), 50, func(tr Trial) (int, error) {
		if tr.Index == 13 {
			panic("kaboom")
		}
		return tr.Index, nil
	})
	var te *TrialError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v (%T), want *TrialError", err, err)
	}
	if te.Index != 13 {
		t.Fatalf("TrialError.Index = %d, want 13", te.Index)
	}
	if te.Stack == "" {
		t.Fatal("panic TrialError must carry the goroutine stack")
	}
	if !strings.Contains(te.Err.Error(), "kaboom") {
		t.Fatalf("underlying error %q lacks the panic value", te.Err)
	}
}

func TestPanicIsolationUnderConcurrency(t *testing.T) {
	// Several concurrent panics must all be absorbed; exactly one
	// surfaces as the sweep error, the process survives. Run with -race
	// in CI to catch unsynchronized recovery paths.
	_, _, err := parallelTrials(context.Background(), 200, func(tr Trial) (int, error) {
		if tr.Index%10 == 0 {
			panic(fmt.Sprintf("trial %d", tr.Index))
		}
		return tr.Index, nil
	})
	var te *TrialError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want a *TrialError", err)
	}
	if te.Index%10 != 0 {
		t.Fatalf("blamed trial %d never panicked", te.Index)
	}
}

func TestRetryRecoversFlakyTrial(t *testing.T) {
	ctx, _ := resilientCtx(context.Background(), RunConfig{
		Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond},
	}, 42)
	var calls atomic.Int64
	vals, done, err := parallelTrials(ctx, 10, func(tr Trial) (int, error) {
		calls.Add(1)
		if tr.Index == 4 && tr.Attempt < 2 {
			return 0, errors.New("transient")
		}
		return tr.Index, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range done {
		if !d || vals[i] != i {
			t.Fatalf("trial %d: done=%v val=%d", i, d, vals[i])
		}
	}
	if got := calls.Load(); got != 12 {
		t.Fatalf("fn ran %d times, want 12 (10 trials + 2 retries)", got)
	}
}

func TestRetryAttemptSeedsDeterministic(t *testing.T) {
	// The per-attempt seeds a flaky trial observes must be identical
	// across two runs of the same sweep.
	observe := func() []uint64 {
		ctx, _ := resilientCtx(context.Background(), RunConfig{
			Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond},
		}, 42)
		var mu []uint64
		var lock = make(chan struct{}, 1)
		lock <- struct{}{}
		_, _, err := parallelTrials(ctx, 5, func(tr Trial) (int, error) {
			if tr.Index == 2 {
				<-lock
				mu = append(mu, tr.Seed)
				lock <- struct{}{}
				if tr.Attempt < 2 {
					return 0, errors.New("transient")
				}
			}
			return tr.Index, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return mu
	}
	a, b := observe(), observe()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("attempt counts: %d and %d, want 3", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d seed differs across runs: %#x vs %#x", i, a[i], b[i])
		}
		for j := i + 1; j < len(a); j++ {
			if a[i] == a[j] {
				t.Fatalf("attempts %d and %d drew the same seed %#x", i, j, a[i])
			}
		}
	}
}

func TestRetryExhaustionFailsWithoutPartial(t *testing.T) {
	ctx, _ := resilientCtx(context.Background(), RunConfig{
		Retry: RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond},
	}, 1)
	var calls atomic.Int64
	_, _, err := parallelTrials(ctx, 3, func(tr Trial) (int, error) {
		if tr.Index == 1 {
			calls.Add(1)
			return 0, errors.New("always failing")
		}
		return tr.Index, nil
	})
	var te *TrialError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TrialError", err)
	}
	if te.Index != 1 || te.Attempts != 2 {
		t.Fatalf("TrialError = index %d after %d attempts, want index 1 after 2", te.Index, te.Attempts)
	}
	if calls.Load() != 2 {
		t.Fatalf("failing trial ran %d times, want MaxAttempts=2", calls.Load())
	}
}

func TestFatalErrorSkipsRetries(t *testing.T) {
	ctx, _ := resilientCtx(context.Background(), RunConfig{
		Partial: true,
		Retry:   RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Microsecond},
	}, 1)
	var calls atomic.Int64
	_, _, err := parallelTrials(ctx, 1, func(tr Trial) (int, error) {
		calls.Add(1)
		return 0, Fatal(errors.New("registry misuse"))
	})
	if err == nil {
		t.Fatal("a Fatal error must fail the sweep even in partial mode")
	}
	if calls.Load() != 1 {
		t.Fatalf("Fatal trial ran %d times, want 1 (no retries)", calls.Load())
	}
}

func TestPartialModeAbsorbsExhaustedTrial(t *testing.T) {
	ctx, st := resilientCtx(context.Background(), RunConfig{
		Partial: true,
		Retry:   RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond},
	}, 1)
	vals, done, err := parallelTrials(ctx, 6, func(tr Trial) (int, error) {
		if tr.Index == 3 {
			return 0, errors.New("hopeless")
		}
		return tr.Index * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range done {
		if i == 3 {
			if done[i] {
				t.Fatal("the hopeless trial must be marked missing")
			}
			continue
		}
		if !done[i] || vals[i] != i*10 {
			t.Fatalf("trial %d: done=%v val=%d", i, done[i], vals[i])
		}
	}
	if st.missing.Load() != 1 {
		t.Fatalf("missing = %d, want 1", st.missing.Load())
	}
}

func TestPartialModeAbsorbsDeadline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ctx, st := resilientCtx(ctx, RunConfig{Partial: true}, 1)
	release := make(chan struct{})
	var once atomic.Bool
	_, done, err := parallelTrials(ctx, 1000, func(tr Trial) (int, error) {
		if once.CompareAndSwap(false, true) {
			cancel()
			close(release)
		}
		<-release
		return tr.Index, nil
	})
	if err != nil {
		t.Fatalf("partial mode must not fail on cancellation, got %v", err)
	}
	nDone := 0
	for _, d := range done {
		if d {
			nDone++
		}
	}
	if nDone == 0 || nDone == 1000 {
		t.Fatalf("nDone = %d, want a strict partial completion", nDone)
	}
	if st.missing.Load() != int64(1000-nDone) {
		t.Fatalf("missing = %d, want %d", st.missing.Load(), 1000-nDone)
	}
}

func TestNonPartialStillFailsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := parallelTrials(ctx, 10, func(tr Trial) (int, error) { return tr.Index, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPanickingRunnerIsolated(t *testing.T) {
	// A deliberately panicking driver run through the registry
	// decoration must surface a TrialError, not crash the process.
	run := instrumentRun("panicky", func(ctx context.Context, s Scale, seed uint64) (Result, error) {
		_, err := parallelMap(ctx, 8, func(i int) (int, error) {
			if i == 5 {
				panic("injected trial panic")
			}
			return i, nil
		})
		return nil, err
	})
	_, err := run(context.Background(), Quick, 7)
	var te *TrialError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v (%T), want *TrialError", err, err)
	}
	if te.Index != 5 {
		t.Fatalf("TrialError.Index = %d, want 5", te.Index)
	}
	if te.Seed == 0 {
		t.Fatal("TrialError must carry a derived seed")
	}
}
