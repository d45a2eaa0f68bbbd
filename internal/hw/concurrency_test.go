package hw_test

import (
	"sync"
	"testing"

	"vortex/internal/device"
	"vortex/internal/hw"
	"vortex/internal/mat"
	"vortex/internal/ncs"
	"vortex/internal/rng"
)

// These tests pin the concurrency contract documented in DESIGN.md §11:
// one hw.Array is NOT safe for concurrent use (its conductance cache,
// solver workspace and stats are all unguarded), so all access to one
// array must be externally serialized — but distinct arrays share no
// mutable state, so different goroutines may drive different arrays
// freely. Run them under -race (make race does).

// concurrencyConfig returns a mid-size ideal-wire array config.
func concurrencyConfig() hw.Config {
	return hw.Config{
		Rows:  64,
		Cols:  8,
		Model: device.DefaultSwitchModel(),
		Sigma: 0.3,
	}
}

// buildProgrammed fabricates and open-loop programs one array.
func buildProgrammed(t *testing.T, backend hw.Backend, cfg hw.Config, seed uint64) hw.Array {
	t.Helper()
	arr, err := ncs.NewArray(backend, cfg, rng.New(seed))
	if err != nil {
		t.Fatalf("%s: %v", backend, err)
	}
	targets := mat.NewMatrix(cfg.Rows, cfg.Cols)
	targets.Fill(100e3)
	if err := arr.ProgramTargets(targets, hw.ProgramOptions{}); err != nil {
		t.Fatalf("%s: program: %v", backend, err)
	}
	return arr
}

// randomInput builds one random input vector of the given width.
func randomInput(width int, seed uint64) []float64 {
	src := rng.New(seed)
	v := make([]float64, width)
	for i := range v {
		v[i] = src.Float64()
	}
	return v
}

// readInto senses the column currents for row voltages v into dst
// through the array's effective read map.
func readInto(arr hw.Array, dst, v []float64) error {
	w, err := arr.EffectiveWeights()
	if err != nil {
		return err
	}
	w.MulVecTo(dst, v)
	return nil
}

// TestConcurrentReadersOnSeparateArrays drives one goroutine per array,
// each hammering reads on its own array. Distinct arrays must share no
// mutable state, so this is race-clean without any locking.
func TestConcurrentReadersOnSeparateArrays(t *testing.T) {
	for _, backend := range []hw.Backend{hw.Analytic, hw.Circuit} {
		t.Run(backend.String(), func(t *testing.T) {
			const arrays = 4
			var wg sync.WaitGroup
			for a := 0; a < arrays; a++ {
				arr := buildProgrammed(t, backend, concurrencyConfig(), uint64(40+a))
				wg.Add(1)
				go func(arr hw.Array) {
					defer wg.Done()
					v := randomInput(arr.Rows(), 7)
					dst := make([]float64, arr.Cols())
					for i := 0; i < 50; i++ {
						if err := readInto(arr, dst, v); err != nil {
							t.Error(err)
							return
						}
						arr.Conductances() // cache reads race-free too
					}
				}(arr)
			}
			wg.Wait()
		})
	}
}

// TestSerializedReadReprogramOneArray interleaves reads, reprograms and
// stats snapshots on ONE array from several goroutines, all serialized
// behind one mutex — the usage pattern internal/fleet's Member lock
// enforces. Under -race this passes only because of the external lock;
// removing it makes the conductance cache and stats counters race.
func TestSerializedReadReprogramOneArray(t *testing.T) {
	arr := buildProgrammed(t, hw.Analytic, concurrencyConfig(), 99)
	targets := mat.NewMatrix(arr.Rows(), arr.Cols())
	targets.Fill(200e3)
	var mu sync.Mutex
	var wg sync.WaitGroup
	v := randomInput(arr.Rows(), 3)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]float64, arr.Cols())
			for i := 0; i < 30; i++ {
				mu.Lock()
				var err error
				switch {
				case g%3 == 0 && i%10 == 9:
					err = arr.ProgramTargets(targets, hw.ProgramOptions{})
				case g%3 == 1 && i%10 == 9:
					arr.Stats()
					arr.ResetStats()
				default:
					err = readInto(arr, dst, v)
				}
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPerArrayMetricsNamespacing checks the metric namespaces: a
// per-array prefix has the documented hw.<backend>.<id>. shape, two
// arrays of one backend get disjoint prefixes, and the per-backend
// bundle is one cached instance per backend.
func TestPerArrayMetricsNamespacing(t *testing.T) {
	if got, want := hw.ArrayPrefix("analytic", "a0"), "hw.analytic.a0."; got != want {
		t.Fatalf("ArrayPrefix = %q, want %q", got, want)
	}
	if hw.ArrayPrefix("analytic", "a0") == hw.ArrayPrefix("analytic", "a1") {
		t.Fatal("different arrays share one metric prefix")
	}
	agg := hw.MetricsFor("analytic")
	if again := hw.MetricsFor("analytic"); again != agg {
		t.Fatal("repeated lookup did not hit the cache")
	}
	if hw.MetricsFor("circuit") == agg {
		t.Fatal("two backends share one metrics bundle")
	}
}
