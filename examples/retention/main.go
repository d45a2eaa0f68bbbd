// Retention demonstrates the lifetime of a programmed crossbar
// classifier under resistance drift, and how budgeting the drift into the
// variation-aware training margin extends it: two identically fabricated
// systems are trained — one against the fabrication variation only, one
// with the drift-equivalent sigma at a ten-year horizon folded in — then
// both are aged and re-evaluated at each decade.
//
//	go run ./examples/retention
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"vortex/internal/core"
	"vortex/internal/dataset"
	"vortex/internal/device"
	"vortex/internal/ncs"
	"vortex/internal/opt"
	"vortex/internal/rng"
)

func main() {
	var (
		sigma = flag.Float64("sigma", 0.3, "fabrication variation")
		nu    = flag.Float64("nu", 0.05, "mean drift exponent")
		nuSd  = flag.Float64("nusd", 0.03, "device-to-device drift spread")
		seed  = flag.Uint64("seed", 11, "seed")
	)
	flag.Parse()

	trainSet, testSet, err := dataset.Digits(120, 60, 2, *seed)
	if err != nil {
		log.Fatal(err)
	}

	drift := device.DriftModel{NuMean: *nu, NuSigma: *nuSd, T0: 1}
	const tenYears = 3.15e8 // seconds
	driftSigma := drift.EquivalentSigma(tenYears)
	aware := math.Sqrt(*sigma**sigma + driftSigma*driftSigma)
	fmt.Printf("fabrication sigma %.2f; drift adds %.2f by ten years -> budget %.2f\n\n",
		*sigma, driftSigma, aware)

	// plain: conventional GDT with no variation margin at all (gamma 0).
	// budgeted: VAT margin sized for the drift budget at the horizon.
	build := func(trainSigma float64) *ncs.NCS {
		ncfg := ncs.DefaultConfig(trainSet.Features(), 10)
		ncfg.Sigma = *sigma
		ncfg.Redundancy = trainSet.Features() / 8
		sys, err := ncs.New(ncfg, rng.New(*seed+2))
		if err != nil {
			log.Fatal(err)
		}
		if err := sys.InitDrift(drift, rng.New(*seed+3)); err != nil {
			log.Fatal(err)
		}
		vcfg := core.DefaultVortexConfig()
		// Hold gamma fixed so the modeled sigma alone scales the margin
		// (rho grows with sigma): that is what "budgeting the drift into
		// the variation model" means. trainSigma = 0 means no margin at
		// all — conventional GDT.
		vcfg.UseSelfTune = false
		vcfg.Gamma = 0.1
		vcfg.SigmaOverride = trainSigma
		if trainSigma <= 0 {
			vcfg.Gamma = 0
			vcfg.SigmaOverride = 1e-9
		}
		vcfg.SGD = opt.SGDConfig{Epochs: 40}
		vcfg.DisableIntegrationRetrain = true
		if _, err := core.TrainVortex(sys, trainSet, vcfg, rng.New(*seed+4)); err != nil {
			log.Fatal(err)
		}
		return sys
	}
	plain := build(0)
	budgeted := build(aware)

	fmt.Printf("%-12s  %-8s  %-8s\n", "age", "plain", "budgeted")
	for _, age := range []struct {
		name string
		t    float64
	}{
		{"fresh", 1}, {"1 hour", 3600}, {"1 day", 86400},
		{"1 month", 2.6e6}, {"1 year", 3.15e7}, {"10 years", tenYears},
	} {
		if err := plain.AgeTo(age.t); err != nil {
			log.Fatal(err)
		}
		if err := budgeted.AgeTo(age.t); err != nil {
			log.Fatal(err)
		}
		rp, err := plain.Evaluate(testSet)
		if err != nil {
			log.Fatal(err)
		}
		rb, err := budgeted.Evaluate(testSet)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s  %6.1f%%   %6.1f%%\n", age.name, 100*rp, 100*rb)
	}
}
