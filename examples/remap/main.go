// Remap walks through adaptive mapping (paper Sec. 4.2) step by step on a
// small, fully printable crossbar: fabricate with heavy variation and a
// few stuck cells, pre-test every device, compute row sensitivities and
// SWV, run the greedy Algorithm 1, and show how the effective variation
// seen by the weights — and the resulting classification rate — improves.
//
//	go run ./examples/remap
package main

import (
	"flag"
	"fmt"
	"log"

	"vortex/internal/dataset"
	"vortex/internal/mapping"
	"vortex/internal/ncs"
	"vortex/internal/opt"
	"vortex/internal/rng"
	"vortex/internal/train"
	"vortex/internal/xbar"
)

func main() {
	var (
		sigma   = flag.Float64("sigma", 0.8, "device variation")
		defects = flag.Float64("defects", 0.02, "stuck-at defect rate")
		seed    = flag.Uint64("seed", 5, "seed")
	)
	flag.Parse()

	// A 7x7 digit task: 49 logical rows, 10 outputs, 8 redundant rows.
	trainSet, testSet, err := dataset.Digits(60, 30, 4, *seed)
	if err != nil {
		log.Fatal(err)
	}

	ncfg := ncs.DefaultConfig(trainSet.Features(), 10)
	ncfg.Sigma = *sigma
	ncfg.DefectRate = *defects
	ncfg.Redundancy = 8
	sys, err := ncs.New(ncfg, rng.New(*seed+2))
	if err != nil {
		log.Fatal(err)
	}

	// Train weights in software (plain GDT — this example isolates AMP).
	w, err := train.SoftwareGDT(trainSet, 10, opt.SGDConfig{Epochs: 40}, rng.New(*seed+3))
	if err != nil {
		log.Fatal(err)
	}

	// Step 1: pre-test both arrays against an HRS background.
	fpos, err := sys.Pos.Pretest(100e3, 3, nil)
	if err != nil {
		log.Fatal(err)
	}
	fneg, err := sys.Neg.Pretest(100e3, 3, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pre-tested %d cells per array (sigma=%.1f, defect rate=%.2f)\n",
		len(fpos.Data), *sigma, *defects)

	// Step 2: sensitivity analysis (Eq. 11) over the workload.
	xmean := trainSet.MeanInput()
	sens := mapping.RowSensitivity(w, xmean)
	hi, lo := 0, 0
	for i, s := range sens {
		if s > sens[hi] {
			hi = i
		}
		if s < sens[lo] {
			lo = i
		}
	}
	fmt.Printf("row sensitivity: max %.3f (row %d), min %.3f (row %d)\n",
		sens[hi], hi, sens[lo], lo)

	// Step 3: evaluate before AMP (identity mapping).
	if err := sys.ProgramWeights(w, xbar.ProgramOptions{}); err != nil {
		log.Fatal(err)
	}
	before, err := sys.Evaluate(testSet)
	if err != nil {
		log.Fatal(err)
	}
	idMap := ncs.IdentityMap(trainSet.Features())
	fmt.Printf("\nbefore AMP: test rate %.1f%%, total SWV %.2f, effective sigma %.2f\n",
		100*before, mapping.TotalSWV(w, fpos, fneg, idMap),
		mapping.EffectiveSigma(w, fpos, fneg, idMap))

	// Step 4: greedy Algorithm 1 and re-evaluation.
	rowMap, err := mapping.Greedy(w, fpos, fneg, xmean)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.SetRowMap(rowMap); err != nil {
		log.Fatal(err)
	}
	if err := sys.ProgramWeights(w, xbar.ProgramOptions{}); err != nil {
		log.Fatal(err)
	}
	after, err := sys.Evaluate(testSet)
	if err != nil {
		log.Fatal(err)
	}
	moved := 0
	for i, p := range rowMap {
		if p != i {
			moved++
		}
	}
	fmt.Printf("after  AMP: test rate %.1f%%, total SWV %.2f, effective sigma %.2f\n",
		100*after, mapping.TotalSWV(w, fpos, fneg, rowMap),
		mapping.EffectiveSigma(w, fpos, fneg, rowMap))
	fmt.Printf("\ngreedy mapping moved %d of %d rows (%d redundant rows available)\n",
		moved, len(rowMap), ncfg.Redundancy)
	fmt.Printf("test rate change: %+.1f points\n", 100*(after-before))
}
