package hw_test

import (
	"fmt"
	"math"
	"testing"

	"vortex/internal/device"
	"vortex/internal/hw"
	"vortex/internal/mat"
	"vortex/internal/ncs"
	"vortex/internal/rng"
)

// BenchmarkBackend measures what one Monte-Carlo trial pays on each
// backend at the paper-scale 784x10 geometry (28x28 inputs, 10
// classes): fabricate the array, program it open loop to a set of
// targets, and take its effective read map, the matrix every read in
// the stack multiplies by.
func BenchmarkBackend(b *testing.B) {
	cfg := hw.Config{
		Rows:  784,
		Cols:  10,
		Model: device.DefaultSwitchModel(),
		Sigma: 0.5,
	}
	// Log-uniform targets across the switching window, the spread a
	// trained weight matrix programs to.
	src := rng.New(7)
	targets := mat.NewMatrix(cfg.Rows, cfg.Cols)
	span := math.Log(cfg.Model.Roff / cfg.Model.Ron)
	for i := range targets.Data {
		targets.Data[i] = cfg.Model.Ron * math.Exp(span*src.Float64())
	}
	for _, backend := range []hw.Backend{hw.Circuit, hw.Analytic} {
		b.Run(fmt.Sprintf("trial/%s/784x10", backend), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				arr, err := ncs.NewArray(backend, cfg, rng.New(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				if err := arr.ProgramTargets(targets, hw.ProgramOptions{}); err != nil {
					b.Fatal(err)
				}
				if _, err := arr.EffectiveWeights(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
