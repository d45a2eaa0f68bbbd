// Command vortexsim runs the paper's experiments by id and prints the
// regenerated rows/series in the paper's shape. The set of experiments
// comes entirely from the experiment registry — adding a driver there
// makes it appear here with no CLI changes.
//
// Usage:
//
//	vortexsim -list
//	vortexsim -exp fig2 [-scale quick|default|full] [-seed N] [-timeout D]
//	vortexsim -exp all -scale default
//
// Long sweeps (crash safety):
//
//	-checkpoint-dir D  persist each completed Monte-Carlo trial; a rerun
//	                   of the same experiment/scale/seed resumes, skipping
//	                   completed trials, with byte-identical output
//	-partial           degrade instead of failing: on timeout, interrupt
//	                   or exhausted retries, print the completed trials
//	                   with NA cells for the missing ones
//	-retries N         total attempts per trial (default 1 = no retries)
//	-retry-backoff D   base delay before the first retry, doubling per
//	                   retry (capped)
//
// Vectorized ensembles:
//
//	-vec P             trial-vectorized ensemble policy: auto (default)
//	                   vectorizes eligible Monte-Carlo sweeps where the
//	                   analytic backend already runs; force and scalar pin
//	                   the analytic backend and run the vectorized /
//	                   per-trial engine respectively (the two arms of the
//	                   parity checks — their output is byte-identical);
//	                   off disables the vectorized path entirely
//
// Fleet scenarios (-exp fleetdrift):
//
//	-fleet-traffic N   classification reads routed per epoch
//	-fleet-aging R     per-epoch stuck-conversion rate (negative = none)
//	-fleet-spares N    fleet members beyond the first (the spare budget)
//
// Observability:
//
//	-v / -log-level   structured logs (per-phase spans, live progress)
//	-log-format json  machine-readable log stream
//	-metrics FILE     write the final metrics snapshot as JSON
//	-metrics-prom F   write the final metrics in Prometheus text format
//	-trace FILE       write the retained spans as Chrome trace_event
//	                  JSON (chrome://tracing, Perfetto)
//	-crash-dir D      where crash dumps land (default .); a panic,
//	                  SIGQUIT, timeout or driver failure writes
//	                  crash-<exp>-<ts>.json with the run manifest, the
//	                  metrics snapshot and the newest 256 spans and
//	                  events, so the span tree around the failure shows
//	-pprof ADDR       serve net/http/pprof, expvar and
//	                  /metrics/prometheus for live profiling/scraping
//
// Exit codes: 0 success, 1 driver failure, 2 usage error, 124 the
// -timeout deadline expired, 130 interrupted by Ctrl-C, 131 SIGQUIT
// (after writing a crash dump). On 124/130 with -checkpoint-dir set,
// the final checkpoint is flushed and the resume command is printed
// before exiting.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"vortex/internal/experiment"
	"vortex/internal/mat"
	"vortex/internal/obs"
)

const (
	exitOK        = 0
	exitFailure   = 1
	exitUsage     = 2
	exitTimeout   = 124 // convention of timeout(1)
	exitInterrupt = 130 // 128 + SIGINT
	exitQuit      = 131 // 128 + SIGQUIT, after the crash dump
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp       = flag.String("exp", "", "experiment id (see -list), or all")
		scale     = flag.String("scale", "default", "experiment scale: quick, default or full")
		seed      = flag.Uint64("seed", 42, "random seed")
		list      = flag.Bool("list", false, "list available experiments")
		csv       = flag.Bool("csv", false, "emit comma-separated values instead of text tables")
		timeout   = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
		verbose   = flag.Bool("v", false, "verbose: shorthand for -log-level debug")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logFormat = flag.String("log-format", "text", "log format: text or json")
		metrics   = flag.String("metrics", "", "write the final metrics-registry snapshot as JSON to this file")
		promPath  = flag.String("metrics-prom", "", "write the final metrics registry in Prometheus text exposition format to this file")
		tracePath = flag.String("trace", "", "write the retained spans as Chrome trace_event JSON to this file")
		crashDir  = flag.String("crash-dir", ".", "directory crash dumps are written to on panic, SIGQUIT, timeout or driver failure")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof, expvar and /metrics/prometheus on this address (e.g. localhost:6060)")

		fleetTraffic = flag.Int("fleet-traffic", 0, "fleetdrift: classification reads per epoch (0 = scale default)")
		fleetAging   = flag.Float64("fleet-aging", 0, "fleetdrift: per-epoch stuck-conversion rate (0 = scale default, negative = no background aging)")
		fleetSpares  = flag.Int("fleet-spares", 0, "fleetdrift: fleet members beyond the first (0 = scale default)")

		vec           = flag.String("vec", "auto", "trial-vectorized ensemble policy: auto, force, scalar or off")
		checkpointDir = flag.String("checkpoint-dir", "", "persist completed trials here and resume an interrupted run of the same experiment/scale/seed")
		partial       = flag.Bool("partial", false, "on timeout, interrupt or exhausted retries, print completed trials with NA cells instead of failing")
		retries       = flag.Int("retries", 1, "total attempts per Monte-Carlo trial (1 = no retries)")
		retryBackoff  = flag.Duration("retry-backoff", 10*time.Millisecond, "base delay before the first retry, doubling per retry (capped at 2s)")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	if *verbose {
		level = slog.LevelDebug
	}
	log, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	obs.SetLogger(log)

	// Post-mortem instrumentation: one ring retains the latest spans and
	// events for every run (-trace only decides whether the Chrome file
	// is written), the manifest makes every crash dump self-describing,
	// and a panic escaping any driver (or the harness itself) is dumped
	// before it is re-raised with its stack intact.
	obs.SetTracer(obs.NewTraceBuffer(8192))
	obs.SetManifest(buildManifest(*exp, *scale, *seed))
	dumpName := *exp
	if dumpName == "" {
		dumpName = "vortexsim"
	}
	defer func() {
		if r := recover(); r != nil {
			if path, err := obs.DumpCrash(*crashDir, dumpName, fmt.Sprintf("panic: %v", r)); err == nil {
				fmt.Fprintf(os.Stderr, "vortexsim: crash dump written to %s\n", path)
			}
			panic(r)
		}
	}()
	// SIGQUIT dumps and exits 131 — the "what is this run doing" escape
	// hatch for a wedged sweep.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		<-quit
		path, err := obs.DumpCrash(*crashDir, dumpName, "SIGQUIT")
		if err == nil {
			fmt.Fprintf(os.Stderr, "vortexsim: SIGQUIT; crash dump written to %s\n", path)
		}
		os.Exit(exitQuit)
	}()
	// Live progress from the Monte-Carlo fan-outs, throttled inside the
	// experiment package.
	experiment.SetProgress(func(done, total int, eta time.Duration) {
		if done < total {
			log.Info("progress", "done", done, "total", total, "eta", eta.Round(time.Second))
		} else {
			log.Debug("progress", "done", done, "total", total)
		}
	})

	if *pprofAddr != "" {
		// Expose the metrics registry next to the standard pprof and
		// expvar endpoints so a long full-scale sweep can be inspected
		// live: /debug/pprof/, /debug/vars, /metrics/prometheus. The
		// server is closed (and its goroutine joined) on every exit path,
		// including 124/130, so an aborted run never leaks the listener.
		expvar.Publish("vortex_metrics", expvar.Func(func() any {
			return obs.Default().Snapshot()
		}))
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Error("pprof listener failed", "addr", *pprofAddr, "err", err)
		} else {
			srv := &http.Server{Handler: newMetricsMux()}
			served := make(chan struct{})
			go func() {
				defer close(served)
				if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
					log.Error("pprof server failed", "addr", *pprofAddr, "err", err)
				}
			}()
			defer func() {
				srv.Close()
				<-served
			}()
			log.Info("pprof listening", "addr", ln.Addr().String())
		}
	}

	runners := experiment.Runners()

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, r := range runners {
			fmt.Printf("  %-9s %s\n", r.Name, r.Description)
		}
		fmt.Println("  all       run everything except crashdemo")
		return exitOK
	}
	sc, err := experiment.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	vecPol, err := experiment.ParseVecPolicy(*vec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}

	toRun, ok := runList(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		if close := experiment.Closest(*exp, 3); len(close) > 0 {
			fmt.Fprintf(os.Stderr, "did you mean: %s\n", strings.Join(close, ", "))
		}
		return exitUsage
	}

	// Ctrl-C (or the -timeout deadline) cancels the context; drivers
	// thread it through their Monte-Carlo fan-out, so a running sweep
	// aborts cleanly instead of finishing the remaining repetitions.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// Once the first interrupt (or the deadline) has canceled the
	// context, restore the default signal disposition so a second
	// Ctrl-C kills the process immediately instead of being swallowed
	// while a long in-flight step drains.
	go func() {
		<-ctx.Done()
		stop()
	}()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// The resilient-execution config rides the context into every
	// registered runner: checkpointing, degradation and retry policy.
	// Fleet-scenario knobs ride the context the same way; drivers other
	// than fleetdrift ignore them.
	ctx = experiment.WithFleetParams(ctx, experiment.FleetParams{
		Traffic: *fleetTraffic,
		Aging:   *fleetAging,
		Spares:  *fleetSpares,
	})
	ctx = experiment.WithRunConfig(ctx, experiment.RunConfig{
		CheckpointDir: *checkpointDir,
		Partial:       *partial,
		Retry: experiment.RetryPolicy{
			MaxAttempts: *retries,
			BaseBackoff: *retryBackoff,
		},
		Vectorize: vecPol,
	})

	wallStart := time.Now()
	code := exitOK
	for _, r := range toRun {
		fmt.Printf("== %s (scale=%s, seed=%d)\n", r.Description, sc, *seed)
		start := time.Now()
		res, err := r.Run(ctx, sc, *seed)
		if err != nil {
			code = abortCode(err, ctx, *timeout, time.Since(wallStart), log)
			if code == exitFailure {
				fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.Name, err)
			}
			break
		}
		if *csv {
			fmt.Print(res.CSV())
		} else {
			fmt.Print(res.Table() + res.Annotation())
		}
		fmt.Printf("[%s in %v]\n\n", r.Name, time.Since(start).Round(time.Millisecond))
	}
	if code == exitOK && ctx.Err() != nil {
		// -partial absorbed the timeout/interrupt inside the drivers and
		// rendered degraded tables; the exit code still reports the abort.
		code = abortCode(ctx.Err(), ctx, *timeout, time.Since(wallStart), log)
	}
	if code == exitOK {
		log.Info("run complete", "experiments", len(toRun), "elapsed", time.Since(wallStart).Round(time.Millisecond))
	}
	if *checkpointDir != "" && (code == exitTimeout || code == exitInterrupt) {
		// The registry decoration flushed the final checkpoint on the way
		// out; tell the user how to pick the sweep back up.
		resume := fmt.Sprintf("vortexsim -exp %s -scale %s -seed %d -checkpoint-dir %s",
			*exp, sc, *seed, *checkpointDir)
		fmt.Fprintf(os.Stderr, "vortexsim: checkpoints retained; resume with: %s\n", resume)
		log.Info("resume command", "cmd", resume)
	}

	// A run that died (driver failure or timeout) leaves a post-mortem
	// dump; interrupts don't — Ctrl-C is the user, not a fault.
	if code == exitFailure || code == exitTimeout {
		reason := "driver failure"
		if code == exitTimeout {
			reason = "timeout"
		}
		if path, err := obs.DumpCrash(*crashDir, dumpName, reason); err != nil {
			log.Warn("crash dump failed", "err", err)
		} else {
			fmt.Fprintf(os.Stderr, "vortexsim: crash dump written to %s\n", path)
			log.Info("crash dump written", "file", path, "reason", reason)
		}
	}

	// The snapshot, trace and Prometheus dump are written even after a
	// timeout or interrupt: the partial data is often exactly what the
	// user aborted to see.
	if *metrics != "" {
		if err := writeMetrics(*metrics); err != nil {
			fmt.Fprintln(os.Stderr, err)
			if code == exitOK {
				code = exitFailure
			}
		} else {
			log.Info("metrics snapshot written", "file", *metrics)
		}
	}
	if *promPath != "" {
		if err := writePromMetrics(*promPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			if code == exitOK {
				code = exitFailure
			}
		} else {
			log.Info("prometheus metrics written", "file", *promPath)
		}
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			if code == exitOK {
				code = exitFailure
			}
		} else {
			log.Info("trace written", "file", *tracePath, "ring_entries", obs.Tracer().Len(),
				"dropped", obs.Tracer().Dropped())
		}
	}
	return code
}

// newMetricsMux builds the -pprof endpoint surface: the standard
// net/http/pprof pages, expvar, and the Prometheus exposition of the
// default metrics registry.
func newMetricsMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics/prometheus", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.Default().WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}

// buildManifest captures the run identity attached to every crash dump.
func buildManifest(exp, scale string, seed uint64) obs.Manifest {
	flags := map[string]string{}
	flag.Visit(func(f *flag.Flag) { flags[f.Name] = f.Value.String() })
	return obs.Manifest{
		Command:    "vortexsim",
		Experiment: exp,
		Scale:      scale,
		Seed:       seed,
		Flags:      flags,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		KernelISA:  mat.KernelISA(),
		PID:        os.Getpid(),
		Start:      time.Now(),
	}
}

// writeTrace dumps the retained spans as Chrome trace_event JSON.
func writeTrace(path string) error {
	fh, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("vortexsim: creating trace file: %w", err)
	}
	werr := obs.Tracer().WriteChromeTrace(fh)
	if cerr := fh.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("vortexsim: writing trace: %w", werr)
	}
	return nil
}

// writePromMetrics dumps the registry in Prometheus text format.
func writePromMetrics(path string) error {
	fh, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("vortexsim: creating prometheus file: %w", err)
	}
	werr := obs.Default().WritePrometheus(fh)
	if cerr := fh.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("vortexsim: writing prometheus metrics: %w", werr)
	}
	return nil
}

// runList resolves an -exp value to the runners to run: "all" is
// experiment.All (every runner but crashdemo), anything else names one
// registered runner. ok is false for an unknown name.
func runList(exp string) (toRun []experiment.Runner, ok bool) {
	if exp == "all" {
		return experiment.All(), true
	}
	r, ok := experiment.Lookup(exp)
	return []experiment.Runner{r}, ok
}

// abortCode classifies a run-ending error: the -timeout deadline and a
// Ctrl-C interrupt are reported distinctly (message and exit code),
// both with the elapsed wall time; anything else is a driver failure.
func abortCode(err error, ctx context.Context, timeout, elapsed time.Duration, log *slog.Logger) int {
	rounded := elapsed.Round(time.Millisecond)
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded):
		fmt.Fprintf(os.Stderr, "vortexsim: timed out after %v (-timeout %v)\n", rounded, timeout)
		log.Warn("run timed out", "timeout", timeout, "elapsed", rounded)
		return exitTimeout
	case errors.Is(err, context.Canceled) || errors.Is(ctx.Err(), context.Canceled):
		fmt.Fprintf(os.Stderr, "vortexsim: interrupted after %v\n", rounded)
		log.Warn("run interrupted", "elapsed", rounded)
		return exitInterrupt
	default:
		return exitFailure
	}
}

// writeMetrics dumps the default-registry snapshot as indented JSON.
func writeMetrics(path string) error {
	raw, err := obs.Default().Snapshot().JSON()
	if err != nil {
		return fmt.Errorf("vortexsim: encoding metrics snapshot: %w", err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("vortexsim: writing metrics snapshot: %w", err)
	}
	return nil
}
