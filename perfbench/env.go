package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vortex/internal/mat"
	"vortex/internal/obs"
)

// env is the machine and build a record was measured on.
type env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	KernelISA  string `json:"kernel_isa"`
	Kernel     string `json:"kernel_release"`
	Commit     string `json:"commit"`
	Load       string `json:"load"`
}

func collectEnv() env {
	return env{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		KernelISA:  mat.KernelISA(),
		Kernel:     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease", "unknown")),
		Commit:     commit(),
		Load:       "closed loop, " + strconv.Itoa(clientConns()) + " connections, client in the same process",
	}
}

// clientConns is how many connections (and client goroutines) a serve
// workload opens: two, or fewer on a machine with fewer cores.
func clientConns() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary, "unknown" when it
// was built outside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func readFile(path, fallback string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return fallback
	}
	return string(b)
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) || frac == 0 {
		return s[lo] // also keeps an infinite neighbour from making NaN
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqrPct is the interquartile range of xs as a percentage of its median.
func iqrPct(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return 100 * (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// snapDelta is the change of the default obs registry between two
// snapshots.
type snapDelta struct{ before, after obs.Snapshot }

func (d snapDelta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

func (d snapDelta) histSum(name string) float64 {
	return d.after.Histograms[name].Sum - d.before.Histograms[name].Sum
}

func (d snapDelta) histCount(name string) float64 {
	return float64(d.after.Histograms[name].Count - d.before.Histograms[name].Count)
}

// histMean is the mean of the samples a histogram took between the
// snapshots, 0 when it took none.
func (d snapDelta) histMean(name string) float64 {
	if n := d.histCount(name); n > 0 {
		return d.histSum(name) / n
	}
	return 0
}

// memDelta is the Go runtime's allocation and GC work between two
// points.
type memDelta struct{ before, after runtime.MemStats }

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func (d memDelta) report(r *record) {
	r.set("go.alloc_mb", float64(d.after.TotalAlloc-d.before.TotalAlloc)/(1<<20))
	r.set("go.gc_cycles", float64(d.after.NumGC-d.before.NumGC))
	r.set("go.gc_pause_ms", float64(d.after.PauseTotalNs-d.before.PauseTotalNs)/1e6)
}
