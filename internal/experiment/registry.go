package experiment

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"vortex/internal/obs"
)

// Result is the common surface of every experiment result: both text
// renderings plus a one-line human annotation ("" when the table stands
// alone) appended after the table in human-readable output.
type Result interface {
	Table() string
	CSV() string
	Annotation() string
}

// Runner couples one experiment driver with its registry metadata so
// front ends (cmd/vortexsim, scripts, tests) can enumerate and dispatch
// experiments without per-experiment code.
type Runner struct {
	// Name is the stable experiment id ("fig2", "table1", "faults", ...).
	Name string
	// Description is the one-line human summary shown by -list.
	Description string
	// Run executes the driver. Implementations honor ctx cancellation:
	// a canceled context aborts the run promptly with ctx.Err().
	Run func(ctx context.Context, scale Scale, seed uint64) (Result, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Runner{}
)

// RunResult decorates a driver's Result with the run's observability
// artifacts: the wall-clock duration and a snapshot of the default
// metrics registry taken when the run finished. Front ends that only
// care about the tables keep using the Result methods; ones that want
// the numbers behind the run (the -metrics flag, tests, dashboards)
// type-assert to *RunResult.
type RunResult struct {
	Result
	// Elapsed is the runner's wall-clock duration.
	Elapsed time.Duration
	// Metrics is the default-registry snapshot at completion. Counters
	// accumulate across runs in one process; diff two snapshots to
	// isolate a single run.
	Metrics obs.Snapshot
	// Missing counts the trials abandoned in partial mode; zero for a
	// complete run. A nonzero count means the tables contain NA cells.
	Missing int64
}

// Annotation extends the driver's annotation with the partial-run
// warning when trials are missing, so every rendering of a degraded
// result says so explicitly.
func (r *RunResult) Annotation() string {
	a := r.Result.Annotation()
	if r.Missing > 0 {
		a += fmt.Sprintf("PARTIAL RESULT: %d trial(s) missing; NA cells are unsimulated\n", r.Missing)
	}
	return a
}

// Unwrap returns the driver's undecorated result.
func (r *RunResult) Unwrap() Result { return r.Result }

// register adds a runner to the registry; driver files call it from
// init, so duplicate or malformed registrations are programmer errors.
// Every runner is wrapped in a timing span ("experiment.<name>") with
// start/finish log records, and its Result is decorated into a
// *RunResult carrying a metrics snapshot.
func register(r Runner) {
	if r.Name == "" || r.Run == nil {
		panic("experiment: register needs a name and a run function")
	}
	r.Run = instrumentRun(r.Name, r.Run)
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[r.Name]; dup {
		panic(fmt.Sprintf("experiment: duplicate runner %q", r.Name))
	}
	registry[r.Name] = r
}

// instrumentRun wraps a driver entry point with the span, logging and
// result decoration every registered experiment gets, plus the
// resilient-execution setup: it picks up the WithRunConfig config,
// opens the checkpoint store, and installs the per-run sweep state that
// parallelTrials reads for panic isolation, retries, checkpointing and
// partial degradation.
func instrumentRun(name string, run func(context.Context, Scale, uint64) (Result, error)) func(context.Context, Scale, uint64) (Result, error) {
	return func(ctx context.Context, scale Scale, seed uint64) (Result, error) {
		log := obs.Logger()
		log.Info("experiment start", "exp", name, "scale", scale.String(), "seed", seed)
		cfg, _ := runConfigFrom(ctx)
		st := newSweepState(name, scale, seed, cfg)
		if cfg.CheckpointDir != "" {
			store, err := openCheckpoint(cfg.CheckpointDir, name, scale, seed)
			if err != nil {
				// Checkpointing is an accelerator, not a correctness
				// requirement: warn and run without it.
				log.Warn("running without checkpointing", "exp", name, "err", err)
			} else {
				st.store = store
				if k := store.trials(); k > 0 {
					log.Info("resuming from checkpoint", "exp", name,
						"file", store.path, "trials", k)
				}
			}
		}
		ctx = withSweepState(ctx, st)
		ctx, sp := obs.StartSpanCtx(ctx, "experiment."+name,
			"exp", name, "scale", scale.String(), "seed", seed)
		res, err := run(ctx, scale, seed)
		elapsed := sp.End()
		if err != nil {
			obs.Default().Counter("experiment.failures").Inc()
			obs.RecordEvent("experiment.failed", name, "elapsed", elapsed, "err", err)
			log.Warn("experiment failed", "exp", name, "elapsed", elapsed, "err", err)
			if store := st.checkpoint(); store != nil {
				// Keep the completed trials: the next run resumes from them.
				if ferr := store.flush(); ferr == nil {
					log.Info("checkpoint retained", "exp", name, "file", store.path,
						"trials", store.trials())
				}
			}
			return nil, err
		}
		missing := st.missing.Load()
		if store := st.checkpoint(); store != nil {
			if missing == 0 {
				if rerr := store.remove(); rerr != nil {
					log.Warn("removing finished checkpoint", "exp", name, "err", rerr)
				}
			} else if ferr := store.flush(); ferr == nil {
				log.Info("checkpoint retained for resume", "exp", name,
					"file", store.path, "trials", store.trials())
			}
		}
		obs.Default().Counter("experiment.runs").Inc()
		log.Info("experiment done", "exp", name, "elapsed", elapsed, "missing", missing)
		return &RunResult{Result: res, Elapsed: elapsed,
			Metrics: obs.Default().Snapshot(), Missing: missing}, nil
	}
}

// Lookup returns the runner registered under name.
func Lookup(name string) (Runner, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	r, ok := registry[name]
	return r, ok
}

// Runners returns every registered runner sorted by name.
func Runners() []Runner {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Runner, 0, len(registry))
	for _, r := range registry {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// All returns the runners "vortexsim -exp all" runs and the golden
// digests pin, sorted by name: every registered runner except
// crashdemo, which panics by design and stays runnable by name.
func All() []Runner {
	var out []Runner
	for _, r := range Runners() {
		if r.Name != "crashdemo" {
			out = append(out, r)
		}
	}
	return out
}

// Closest returns up to max registered names ranked by edit distance to
// name — the "did you mean" list for an unknown -exp value.
func Closest(name string, max int) []string {
	type cand struct {
		name string
		dist int
	}
	var cands []cand
	for _, r := range Runners() {
		cands = append(cands, cand{r.Name, editDistance(name, r.Name)})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].dist < cands[j].dist })
	var out []string
	for _, c := range cands {
		if len(out) >= max {
			break
		}
		// Suggest only names within a plausible typo radius: allow more
		// edits for longer inputs, but never more than half the name.
		limit := (len(name) + len(c.name)) / 4
		if limit < 2 {
			limit = 2
		}
		if c.dist <= limit {
			out = append(out, c.name)
		}
	}
	return out
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	if a == b {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1              // deletion
			if v := cur[j-1] + 1; v < m { // insertion
				m = v
			}
			if v := prev[j-1] + cost; v < m { // substitution
				m = v
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
