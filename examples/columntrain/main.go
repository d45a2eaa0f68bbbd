// Columntrain reproduces the scenario of the paper's Sec. 3.1 (Fig. 2)
// interactively: a single crossbar column of 100 memristors is trained to
// emit 1 mA when every row is driven at 1 V, first open loop (OLD) and
// then close loop (CLD), at a chosen device-variation level. The example
// prints the landed per-cell resistances and the output discrepancy of
// both schemes, making the paper's core observation tangible: open-loop
// programming inherits the full device variation while feedback washes it
// out.
//
//	go run ./examples/columntrain -sigma 0.5
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"vortex/internal/adc"
	"vortex/internal/device"
	"vortex/internal/mat"
	"vortex/internal/rng"
	"vortex/internal/stats"
	"vortex/internal/xbar"
)

const (
	cells   = 100
	target  = 1e-3  // 1 mA column current
	rTarget = 100e3 // per-cell share of the goal at 1 V inputs
)

func main() {
	sigma := flag.Float64("sigma", 0.5, "lognormal device variation")
	seed := flag.Uint64("seed", 7, "fabrication seed")
	flag.Parse()

	cfg := xbar.Config{
		Rows:  cells,
		Cols:  1,
		Model: device.DefaultSwitchModel(),
		Sigma: *sigma,
	}
	xb, err := xbar.New(cfg, rng.New(*seed))
	if err != nil {
		log.Fatal(err)
	}
	vin := mat.Constant(cells, 1.0)

	// --- OLD: one pre-calculated open-loop pass. ---
	targets := mat.NewMatrix(cells, 1)
	targets.Fill(rTarget)
	if err := xb.ProgramTargets(targets, xbar.ProgramOptions{}); err != nil {
		log.Fatal(err)
	}
	iOLD := xb.Conductances().MulVec(vin)[0]
	rs := make([]float64, cells)
	for c := 0; c < cells; c++ {
		rs[c] = xb.Cell(c, 0).Resistance(cfg.Model)
	}
	mu, sd, err := stats.FitLogNormal(rs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("OLD: programmed %d cells to %.0f ohm open loop\n", cells, rTarget)
	fmt.Printf("  landed resistances: lognormal(mu=%.2f, sigma=%.2f) — target ln R = %.2f\n",
		mu, sd, math.Log(rTarget))
	fmt.Printf("  output current %.4f mA (target 1.0000), discrepancy %.1f%%\n\n",
		1e3*iOLD, 100*math.Abs(iOLD-target)/target)

	// --- CLD: reset, then iterate program-and-sense through a 6-bit ADC. ---
	xb.ResetAll()
	conv, err := adc.NewConverter(6, 0, 2*target)
	if err != nil {
		log.Fatal(err)
	}
	chain := adc.NewSenseChain(conv, 1, nil)
	belief := mat.Constant(cells, 1/cfg.Model.Roff)
	iters := 0
	for ; iters < 80; iters++ {
		sensed := chain.Sense(xb.Conductances().MulVec(vin)[0])
		e := target - sensed
		if math.Abs(e) < target/64 { // half LSB of the 6-bit chain
			break
		}
		var pulses []xbar.CellPulse
		dg := e / float64(cells)
		for c := 0; c < cells; c++ {
			next := belief[c] + dg
			if next < 1/cfg.Model.Roff {
				next = 1 / cfg.Model.Roff
			} else if next > 1/cfg.Model.Ron {
				next = 1 / cfg.Model.Ron
			}
			if next == belief[c] {
				continue
			}
			p := cfg.Model.PulseForTarget(-math.Log(belief[c]), -math.Log(next))
			belief[c] = next
			if p.Width > 0 {
				pulses = append(pulses, xbar.CellPulse{Row: c, Col: 0, Pulse: p})
			}
		}
		if len(pulses) == 0 {
			break
		}
		if err := xb.ProgramBatch(pulses, xbar.ProgramOptions{}); err != nil {
			log.Fatal(err)
		}
	}
	iCLD := xb.Conductances().MulVec(vin)[0]
	fmt.Printf("CLD: converged in %d program-and-sense iterations (6-bit ADC)\n", iters)
	fmt.Printf("  output current %.4f mA, discrepancy %.2f%%\n\n",
		1e3*iCLD, 100*math.Abs(iCLD-target)/target)

	fmt.Printf("at sigma=%.2f the open-loop discrepancy is %.0fx the close-loop one\n",
		*sigma, math.Abs(iOLD-target)/math.Max(math.Abs(iCLD-target), 1e-9))
}
