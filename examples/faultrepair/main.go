// Faultrepair walks the post-deployment fault story end to end on a
// small system: train with Vortex, strike the running arrays with stuck
// conversions and a line open, watch the accuracy drop, then run the
// detect -> fault-aware remap -> reprogram -> verify repair pipeline
// and re-evaluate.
//
//	go run ./examples/faultrepair
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"vortex/internal/core"
	"vortex/internal/dataset"
	"vortex/internal/fault"
	"vortex/internal/ncs"
	"vortex/internal/opt"
	"vortex/internal/rng"
	"vortex/internal/xbar"
)

func main() {
	var (
		sigma     = flag.Float64("sigma", 0.4, "device variation")
		stuckRate = flag.Float64("stuck", 0.08, "per-cell stuck conversion rate of the strike")
		lineRate  = flag.Float64("lines", 0.01, "per-line open rate of the strike")
		seed      = flag.Uint64("seed", 11, "seed")
	)
	flag.Parse()

	// A 7x7 digit task: 49 logical rows, 10 outputs, 8 redundant rows.
	trainSet, testSet, err := dataset.Digits(60, 30, 4, *seed)
	if err != nil {
		log.Fatal(err)
	}

	ncfg := ncs.DefaultConfig(trainSet.Features(), 10)
	ncfg.Sigma = *sigma
	ncfg.Redundancy = 8
	sys, err := ncs.New(ncfg, rng.New(*seed+2))
	if err != nil {
		log.Fatal(err)
	}

	// Train and deploy with the full Vortex pipeline (fixed gamma keeps
	// the example fast).
	vcfg := core.DefaultVortexConfig()
	vcfg.UseSelfTune = false
	vcfg.Gamma = 0.05
	vcfg.SigmaOverride = *sigma
	vcfg.SGD = opt.SGDConfig{Epochs: 40}
	vcfg.PretestSenses = 1
	vres, err := core.TrainVortex(sys, trainSet, vcfg, rng.New(*seed+3))
	if err != nil {
		log.Fatal(err)
	}
	healthy, err := sys.Evaluate(testSet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed: test rate %.1f%% (sigma=%.1f, gamma=%.2f)\n",
		100*healthy, *sigma, vres.Gamma)

	// The strike: cells convert to stuck states, a line may crack open.
	inj, err := fault.NewInjector(fault.Config{
		StuckRate:    *stuckRate,
		LineOpenRate: *lineRate,
	}, rng.New(*seed+4))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := inj.Inject(sys)
	if err != nil {
		log.Fatal(err)
	}
	struck, err := sys.Evaluate(testSet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstrike:   %d stuck conversions, %d line opens (%d cells) -> test rate %.1f%%\n",
		rep.Stuck, rep.LineOpens, rep.OpenCells, 100*struck)

	// Detect: the cheap two-target health scan.
	fmap, err := fault.Scan(context.Background(), sys, fault.ScanOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scan:     %d dead, %d suspect of %d cells (dead fraction %.1f%%)\n",
		fmap.DeadCells(), fmap.SuspectCells(), 2*fmap.Rows*fmap.Cols,
		100*fmap.DeadFraction())

	// Repair: remap around (or onto!) the casualties, reprogram, verify.
	out, err := fault.Repair(context.Background(), sys, vres.Weights, fault.Policy{
		Verify: xbar.VerifyOptions{TolLog: 0.02, MaxIter: 5},
	})
	if err != nil {
		log.Fatal(err)
	}
	repaired, err := sys.Evaluate(testSet)
	if err != nil {
		log.Fatal(err)
	}
	moved := 0
	for i, p := range out.RowMap {
		if vres.RowMap[i] != p {
			moved++
		}
	}
	fmt.Printf("\nrepair:   %d round(s), moved %d of %d rows, residual damage %.2f, degraded=%v\n",
		out.Rounds, moved, len(out.RowMap), out.Damage, out.Degraded)
	fmt.Printf("          test rate %.1f%% (was %.1f%% struck, %.1f%% healthy)\n",
		100*repaired, 100*struck, 100*healthy)
	fmt.Printf("\nrecovered %+.1f of the %.1f points lost\n",
		100*(repaired-struck), 100*(healthy-struck))
}
