package experiment

import (
	"context"
	"fmt"
	"math"

	"vortex/internal/core"
	"vortex/internal/dataset"
	"vortex/internal/fault"
	"vortex/internal/hw"
	"vortex/internal/ncs"
	"vortex/internal/rng"
	"vortex/internal/train"
)

// FaultSweepResult reports post-deployment fault tolerance: test rate
// versus the stuck-cell conversion rate for OLD-trained hardware, for
// Vortex-trained hardware left alone, and for Vortex-trained hardware
// run through the detect -> remap -> reprogram repair pipeline after
// the faults strike.
type FaultSweepResult struct {
	Rates      []float64 // stuck-cell conversion rates swept
	OLD        []float64
	Vortex     []float64
	Repaired   []float64
	Degraded   []float64 // fraction of repaired runs reporting degraded operation
	Sigma      float64
	Redundancy int
	MCRuns     int
}

func (r *FaultSweepResult) cells() ([]string, [][]string) {
	rows := make([][]string, len(r.Rates))
	for i := range r.Rates {
		rows[i] = []string{
			f3(r.Rates[i]), pct(r.OLD[i]), pct(r.Vortex[i]),
			pct(r.Repaired[i]), f3(r.Degraded[i]),
		}
	}
	return []string{"fault rate", "OLD%", "Vortex%", "Vortex+repair%", "degraded"}, rows
}

// Table renders the result as an aligned text table.
func (r *FaultSweepResult) Table() string { return textTable(r.cells()) }

// CSV renders the result as comma-separated values for plotting.
func (r *FaultSweepResult) CSV() string { return csvTable(r.cells()) }

// Annotation implements Result.
func (r *FaultSweepResult) Annotation() string {
	return fmt.Sprintf("(sigma=%.1f, %d redundant rows, %d Monte-Carlo runs)\n",
		r.Sigma, r.Redundancy, r.MCRuns)
}

func init() {
	register(Runner{
		Name:        "faults",
		Description: "Extension — post-deployment faults: OLD / Vortex / Vortex+repair vs stuck-cell rate",
		Run: func(ctx context.Context, s Scale, seed uint64) (Result, error) {
			return FaultSweep(ctx, s, seed)
		},
	})
}

// faultTrial is one Monte-Carlo point of the sweep. Fields are exported
// so completed trials round-trip through the JSON checkpoint store.
type faultTrial struct {
	Old      float64 `json:"old"`
	Vortex   float64 `json:"vortex"`
	Repaired float64 `json:"repaired"`
	Degraded bool    `json:"degraded"`
}

// FaultSweep evaluates how the schemes degrade when cells convert to
// stuck states after training, and how much the repair pipeline claws
// back. Per Monte-Carlo run three identically fabricated systems are
// trained (OLD; Vortex; Vortex again for the repair arm, by replaying
// the trained weights and mapping), hit with the identical fault
// pattern (injectors seeded alike), and evaluated; the repair arm then
// runs fault.Repair with the trained weights before its evaluation.
// Trials run concurrently via parallelTrials and are deterministic in
// (scale, seed); under a checkpointing run each completed trial is
// persisted and replayed on resume.
func FaultSweep(ctx context.Context, scale Scale, seed uint64) (*FaultSweepResult, error) {
	p := protoFor(scale)
	trainSet, testSet, err := dataset.Digits(p.perClassTrain, p.perClassTest, p.factor, seed)
	if err != nil {
		return nil, err
	}
	rates := []float64{0, 0.02, 0.05, 0.1}
	if scale == Quick {
		rates = []float64{0, 0.1}
	}
	const sigma = 0.4
	redundancy := trainSet.Features() / 8
	res := &FaultSweepResult{Sigma: sigma, Redundancy: redundancy, MCRuns: p.mcRuns}

	trials, completed, err := parallelTrials(ctx, len(rates)*p.mcRuns, func(tr Trial) (faultTrial, error) {
		i := tr.Index
		ri, mc := i/p.mcRuns, i%p.mcRuns
		rate := rates[ri]
		base := seed + uint64(2000*ri+131*mc)
		fcfg := fault.Config{StuckRate: rate}
		strike := func(n *ncs.NCS) error {
			in, err := fault.NewInjector(fcfg, rng.New(base+9))
			if err != nil {
				return err
			}
			_, err = in.Inject(n)
			return err
		}
		var t faultTrial

		// OLD baseline.
		n1, err := buildNCS(fastBackend(scale, 0), trainSet.Features(), redundancy, sigma, 0, 6, base)
		if err != nil {
			return t, err
		}
		if _, err := train.OLD(n1, trainSet, train.OLDConfig{SGD: p.sgd}, rng.New(base+1)); err != nil {
			return t, err
		}
		if err := strike(n1); err != nil {
			return t, err
		}
		if t.Old, err = n1.Evaluate(testSet); err != nil {
			return t, err
		}

		// Vortex, struck and left alone.
		n2, err := buildNCS(fastBackend(scale, 0), trainSet.Features(), redundancy, sigma, 0, 6, base)
		if err != nil {
			return t, err
		}
		vcfg := core.DefaultVortexConfig()
		vcfg.UseSelfTune = false
		vcfg.Gamma = 0.05
		vcfg.SigmaOverride = sigma
		vcfg.SGD = p.sgd
		vcfg.PretestSenses = 1
		vres, err := core.TrainVortex(n2, trainSet, vcfg, rng.New(base+2))
		if err != nil {
			return t, err
		}
		if err := strike(n2); err != nil {
			return t, err
		}
		if t.Vortex, err = n2.Evaluate(testSet); err != nil {
			return t, err
		}

		// The repair arm: identical fabrication, the trained weights and
		// mapping replayed (so no second training run), the identical
		// fault pattern, then the repair pipeline.
		n3, err := buildNCS(fastBackend(scale, 0), trainSet.Features(), redundancy, sigma, 0, 6, base)
		if err != nil {
			return t, err
		}
		if err := n3.SetRowMap(vres.RowMap); err != nil {
			return t, err
		}
		if err := n3.ProgramWeights(vres.Weights, hw.ProgramOptions{}); err != nil {
			return t, err
		}
		if err := strike(n3); err != nil {
			return t, err
		}
		out, err := fault.Repair(ctx, n3, vres.Weights, fault.Policy{
			Verify: hw.VerifyOptions{TolLog: 0.02, MaxIter: 5},
		})
		if err != nil {
			return t, err
		}
		t.Degraded = out.Degraded
		if t.Repaired, err = n3.Evaluate(testSet); err != nil {
			return t, err
		}
		return t, nil
	})
	if err != nil {
		return nil, err
	}

	// Aggregate per-rate means over the trials that completed; a partial
	// run leaves holes, and a rate cell with no completed trials at all
	// renders NA (NaN).
	for ri := range rates {
		var old, vor, rep, deg, k float64
		for mc := 0; mc < p.mcRuns; mc++ {
			if !completed[ri*p.mcRuns+mc] {
				continue
			}
			t := trials[ri*p.mcRuns+mc]
			old += t.Old
			vor += t.Vortex
			rep += t.Repaired
			if t.Degraded {
				deg++
			}
			k++
		}
		res.Rates = append(res.Rates, rates[ri])
		if k == 0 {
			nan := math.NaN()
			res.OLD = append(res.OLD, nan)
			res.Vortex = append(res.Vortex, nan)
			res.Repaired = append(res.Repaired, nan)
			res.Degraded = append(res.Degraded, nan)
			continue
		}
		res.OLD = append(res.OLD, old/k)
		res.Vortex = append(res.Vortex, vor/k)
		res.Repaired = append(res.Repaired, rep/k)
		res.Degraded = append(res.Degraded, deg/k)
	}
	return res, nil
}
