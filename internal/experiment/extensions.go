package experiment

import (
	"context"
	"fmt"

	"vortex/internal/core"
	"vortex/internal/dataset"
	"vortex/internal/hw"
	"vortex/internal/mapping"
	"vortex/internal/ncs"
	"vortex/internal/rng"
	"vortex/internal/train"
)

// The experiments in this file go beyond the paper's figures: they cover
// the design-space points the paper discusses but does not plot — the
// per-cell program-and-verify alternative (ref [7]), defective-cell
// tolerance (Sec. 4.2.2), the hardware cost of each scheme (the Sec. 1
// motivation), and the choice of mapping optimizer (Sec. 4.2.2 notes
// greedy "is just one example").

// SchemesResult compares every training scheme across sigma: test rate of
// OLD, PV (program-and-verify), CLD and Vortex on identically fabricated
// hardware.
type SchemesResult struct {
	Sigmas []float64
	OLD    []float64
	PV     []float64
	CLD    []float64
	Vortex []float64
}

func (r *SchemesResult) cells() ([]string, [][]string) {
	rows := make([][]string, len(r.Sigmas))
	for i := range r.Sigmas {
		rows[i] = []string{
			f3(r.Sigmas[i]), pct(r.OLD[i]), pct(r.PV[i]), pct(r.CLD[i]), pct(r.Vortex[i]),
		}
	}
	return []string{"sigma", "OLD%", "PV%", "CLD%", "Vortex%"}, rows
}

// Table renders the result as an aligned text table.
func (r *SchemesResult) Table() string { return textTable(r.cells()) }

// CSV renders the result as comma-separated values for plotting.
func (r *SchemesResult) CSV() string { return csvTable(r.cells()) }

// Annotation implements Result.
func (r *SchemesResult) Annotation() string { return "" }

func init() {
	register(Runner{
		Name:        "schemes",
		Description: "Extension — OLD vs PV vs CLD vs Vortex test rate across sigma",
		Run: func(ctx context.Context, s Scale, seed uint64) (Result, error) {
			return Schemes(ctx, s, seed)
		},
	})
}

// Schemes sweeps sigma and reports the test rate of all four training
// schemes (no wire parasitics; this isolates device variation).
func Schemes(ctx context.Context, scale Scale, seed uint64) (*SchemesResult, error) {
	p := protoFor(scale)
	trainSet, testSet, err := dataset.Digits(p.perClassTrain, p.perClassTest, p.factor, seed)
	if err != nil {
		return nil, err
	}
	sigmas := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	if scale == Quick {
		sigmas = []float64{0.4, 0.8}
	}
	res := &SchemesResult{Sigmas: sigmas}
	for si, sigma := range sigmas {
		if err := ctx.Err(); err != nil {
			if partialSweep(ctx) {
				break // render the sigmas already swept; the rest pad to NA
			}
			return nil, err
		}
		var old, pv, cld, vortex float64
		for mc := 0; mc < p.mcRuns; mc++ {
			base := seed + uint64(1000*si+97*mc)
			runSeed := rng.New(base + 11)

			n1, err := buildNCS(fastBackend(scale, 0), trainSet.Features(), 0, sigma, 0, 6, base)
			if err != nil {
				return nil, err
			}
			if _, err := train.OLD(n1, trainSet, train.OLDConfig{SGD: p.sgd}, runSeed.Split()); err != nil {
				return nil, err
			}
			r1, err := n1.Evaluate(testSet)
			if err != nil {
				return nil, err
			}
			old += r1

			n2, err := buildNCS(fastBackend(scale, 0), trainSet.Features(), 0, sigma, 0, 6, base)
			if err != nil {
				return nil, err
			}
			if _, err := train.PV(n2, trainSet, train.PVConfig{SGD: p.sgd}, runSeed.Split()); err != nil {
				return nil, err
			}
			r2, err := n2.Evaluate(testSet)
			if err != nil {
				return nil, err
			}
			pv += r2

			n3, err := buildNCS(fastBackend(scale, 0), trainSet.Features(), 0, sigma, 0, 6, base)
			if err != nil {
				return nil, err
			}
			if _, err := train.CLD(n3, trainSet, train.CLDConfig{Epochs: p.cldEpochs}, runSeed.Split()); err != nil {
				return nil, err
			}
			r3, err := n3.Evaluate(testSet)
			if err != nil {
				return nil, err
			}
			cld += r3

			n4, err := buildNCS(fastBackend(scale, 0), trainSet.Features(), 0, sigma, 0, 6, base)
			if err != nil {
				return nil, err
			}
			vcfg := core.DefaultVortexConfig()
			vcfg.SGD = p.sgd
			vcfg.SelfTune = train.SelfTuneConfig{MCRuns: p.mcRuns, SGD: p.sgd}
			if _, err := core.TrainVortex(n4, trainSet, vcfg, runSeed.Split()); err != nil {
				return nil, err
			}
			r4, err := n4.Evaluate(testSet)
			if err != nil {
				return nil, err
			}
			vortex += r4
		}
		k := float64(p.mcRuns)
		res.OLD = append(res.OLD, old/k)
		res.PV = append(res.PV, pv/k)
		res.CLD = append(res.CLD, cld/k)
		res.Vortex = append(res.Vortex, vortex/k)
	}
	res.OLD = padNaN(res.OLD, len(sigmas))
	res.PV = padNaN(res.PV, len(sigmas))
	res.CLD = padNaN(res.CLD, len(sigmas))
	res.Vortex = padNaN(res.Vortex, len(sigmas))
	return res, nil
}

// DefectsResult reports defect tolerance (paper Sec. 4.2.2): test rate
// versus stuck-at defect rate, with and without AMP, at fixed sigma and
// redundancy.
type DefectsResult struct {
	Rates      []float64 // defect rates swept
	WithAMP    []float64
	WithoutAMP []float64
	Sigma      float64
	Redundancy int
}

func (r *DefectsResult) cells() ([]string, [][]string) {
	rows := make([][]string, len(r.Rates))
	for i := range r.Rates {
		rows[i] = []string{
			f3(r.Rates[i]), pct(r.WithoutAMP[i]), pct(r.WithAMP[i]),
		}
	}
	return []string{"defect rate", "no AMP%", "AMP%"}, rows
}

// Table renders the result as an aligned text table.
func (r *DefectsResult) Table() string { return textTable(r.cells()) }

// CSV renders the result as comma-separated values for plotting.
func (r *DefectsResult) CSV() string { return csvTable(r.cells()) }

// Annotation implements Result.
func (r *DefectsResult) Annotation() string {
	return fmt.Sprintf("(sigma=%.1f, %d redundant rows)\n", r.Sigma, r.Redundancy)
}

func init() {
	register(Runner{
		Name:        "defects",
		Description: "Extension — defect tolerance: test rate vs stuck-at rate, with/without AMP",
		Run: func(ctx context.Context, s Scale, seed uint64) (Result, error) {
			return Defects(ctx, s, seed)
		},
	})
}

// Defects sweeps the stuck-at defect rate and shows AMP steering weights
// away from dead cells using the redundant rows.
func Defects(ctx context.Context, scale Scale, seed uint64) (*DefectsResult, error) {
	p := protoFor(scale)
	trainSet, testSet, err := dataset.Digits(p.perClassTrain, p.perClassTest, p.factor, seed)
	if err != nil {
		return nil, err
	}
	rates := []float64{0, 0.01, 0.02, 0.05, 0.1}
	if scale == Quick {
		rates = []float64{0, 0.05}
	}
	const sigma = 0.4
	redundancy := trainSet.Features() / 8
	res := &DefectsResult{Rates: rates, Sigma: sigma, Redundancy: redundancy}

	for ri, defectRate := range rates {
		if err := ctx.Err(); err != nil {
			if partialSweep(ctx) {
				break // render the rates already swept; the rest pad to NA
			}
			return nil, err
		}
		var withAMP, withoutAMP float64
		for mc := 0; mc < p.mcRuns; mc++ {
			base := seed + uint64(500*ri+31*mc)
			for _, useAMP := range []bool{true, false} {
				cfg := ncs.DefaultConfig(trainSet.Features(), 10)
				cfg.Backend = fastBackend(scale, 0)
				cfg.Sigma = sigma
				cfg.DefectRate = defectRate
				cfg.Redundancy = redundancy
				n, err := ncs.New(cfg, rng.New(base))
				if err != nil {
					return nil, err
				}
				vcfg := core.DefaultVortexConfig()
				vcfg.UseSelfTune = false
				vcfg.Gamma = 0.05
				vcfg.SigmaOverride = sigma
				vcfg.SGD = p.sgd
				vcfg.UseAMP = useAMP
				vcfg.PretestSenses = 1
				if _, err := core.TrainVortex(n, trainSet, vcfg, rng.New(base+7)); err != nil {
					return nil, err
				}
				rate, err := n.Evaluate(testSet)
				if err != nil {
					return nil, err
				}
				if useAMP {
					withAMP += rate
				} else {
					withoutAMP += rate
				}
			}
		}
		res.WithAMP = append(res.WithAMP, withAMP/float64(p.mcRuns))
		res.WithoutAMP = append(res.WithoutAMP, withoutAMP/float64(p.mcRuns))
	}
	res.WithAMP = padNaN(res.WithAMP, len(rates))
	res.WithoutAMP = padNaN(res.WithoutAMP, len(rates))
	return res, nil
}

// CostResult accounts the hardware training cost of each scheme on one
// task: programming pulses, pulse time, energy and sense operations.
type CostResult struct {
	Schemes   []string
	TestRate  []float64
	Pulses    []int
	PulseTime []float64 // seconds of accumulated pulse width
	Energy    []float64 // joules
}

func (r *CostResult) cells() ([]string, [][]string) {
	rows := make([][]string, len(r.Schemes))
	for i := range r.Schemes {
		rows[i] = []string{
			r.Schemes[i], pct(r.TestRate[i]), intS(r.Pulses[i]),
			sci(r.PulseTime[i]), sci(r.Energy[i]),
		}
	}
	return []string{"scheme", "test%", "pulses", "pulse time [s]", "energy [J]"}, rows
}

// Table renders the result as an aligned text table.
func (r *CostResult) Table() string { return textTable(r.cells()) }

// CSV renders the result as comma-separated values for plotting.
func (r *CostResult) CSV() string { return csvTable(r.cells()) }

// Annotation implements Result.
func (r *CostResult) Annotation() string { return "" }

func init() {
	register(Runner{
		Name:        "cost",
		Description: "Extension — hardware programming cost of each training scheme",
		Run: func(ctx context.Context, s Scale, seed uint64) (Result, error) {
			return Cost(ctx, s, seed)
		},
	})
}

// Cost trains the same fabricated hardware with OLD, PV, CLD and Vortex
// and reports each scheme's accumulated programming cost next to its test
// rate — quantifying the paper's overhead narrative.
func Cost(ctx context.Context, scale Scale, seed uint64) (*CostResult, error) {
	p := protoFor(scale)
	trainSet, testSet, err := dataset.Digits(p.perClassTrain, p.perClassTest, p.factor, seed)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	const sigma = 0.6
	res := &CostResult{}
	record := func(name string, n *ncs.NCS) error {
		rate, err := n.Evaluate(testSet)
		if err != nil {
			return err
		}
		st := n.Pos.Stats()
		st.Add(n.Neg.Stats())
		res.Schemes = append(res.Schemes, name)
		res.TestRate = append(res.TestRate, rate)
		res.Pulses = append(res.Pulses, st.Pulses)
		res.PulseTime = append(res.PulseTime, st.PulseTime)
		res.Energy = append(res.Energy, st.Energy)
		return nil
	}

	n1, err := buildNCS(fastBackend(scale, 0), trainSet.Features(), 0, sigma, 0, 6, seed)
	if err != nil {
		return nil, err
	}
	if _, err := train.OLD(n1, trainSet, train.OLDConfig{SGD: p.sgd}, rng.New(seed+1)); err != nil {
		return nil, err
	}
	if err := record("OLD", n1); err != nil {
		return nil, err
	}

	n2, err := buildNCS(fastBackend(scale, 0), trainSet.Features(), 0, sigma, 0, 6, seed)
	if err != nil {
		return nil, err
	}
	if _, err := train.PV(n2, trainSet, train.PVConfig{SGD: p.sgd}, rng.New(seed+1)); err != nil {
		return nil, err
	}
	if err := record("PV", n2); err != nil {
		return nil, err
	}

	n3, err := buildNCS(fastBackend(scale, 0), trainSet.Features(), 0, sigma, 0, 6, seed)
	if err != nil {
		return nil, err
	}
	if _, err := train.CLD(n3, trainSet, train.CLDConfig{Epochs: p.cldEpochs}, rng.New(seed+1)); err != nil {
		return nil, err
	}
	if err := record("CLD", n3); err != nil {
		return nil, err
	}

	n4, err := buildNCS(fastBackend(scale, 0), trainSet.Features(), 0, sigma, 0, 6, seed)
	if err != nil {
		return nil, err
	}
	vcfg := core.DefaultVortexConfig()
	vcfg.SGD = p.sgd
	vcfg.SelfTune = train.SelfTuneConfig{MCRuns: p.mcRuns, SGD: p.sgd}
	if _, err := core.TrainVortex(n4, trainSet, vcfg, rng.New(seed+1)); err != nil {
		return nil, err
	}
	if err := record("Vortex", n4); err != nil {
		return nil, err
	}
	return res, nil
}

// MappersResult compares AMP mapping strategies: identity, random,
// greedy (Algorithm 1) and the Hungarian optimum, by total SWV and
// hardware test rate.
type MappersResult struct {
	Names    []string
	SWV      []float64
	TestRate []float64
	Sigma    float64
}

func (r *MappersResult) cells() ([]string, [][]string) {
	rows := make([][]string, len(r.Names))
	for i := range r.Names {
		rows[i] = []string{r.Names[i], f3(r.SWV[i]), pct(r.TestRate[i])}
	}
	return []string{"mapper", "total SWV", "test%"}, rows
}

// Table renders the result as an aligned text table.
func (r *MappersResult) Table() string { return textTable(r.cells()) }

// CSV renders the result as comma-separated values for plotting.
func (r *MappersResult) CSV() string { return csvTable(r.cells()) }

// Annotation implements Result.
func (r *MappersResult) Annotation() string {
	return fmt.Sprintf("(sigma=%.1f)\n", r.Sigma)
}

func init() {
	register(Runner{
		Name:        "mappers",
		Description: "Ablation — identity vs random vs greedy vs Hungarian AMP mapping",
		Run: func(ctx context.Context, s Scale, seed uint64) (Result, error) {
			return Mappers(ctx, s, seed)
		},
	})
}

// Mappers trains VAT weights once, then programs the same hardware under
// four different row-mapping strategies and evaluates each.
func Mappers(ctx context.Context, scale Scale, seed uint64) (*MappersResult, error) {
	p := protoFor(scale)
	trainSet, testSet, err := dataset.Digits(p.perClassTrain, p.perClassTest, p.factor, seed)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	const sigma = 0.8
	redundancy := trainSet.Features() / 8
	w, err := train.SoftwareVAT(trainSet, 10, 0.05, sigma, 0.9, p.sgd, rng.New(seed+3))
	if err != nil {
		return nil, err
	}
	cfg := ncs.DefaultConfig(trainSet.Features(), 10)
	cfg.Backend = fastBackend(scale, 0)
	cfg.Sigma = sigma
	cfg.Redundancy = redundancy
	n, err := ncs.New(cfg, rng.New(seed+5))
	if err != nil {
		return nil, err
	}
	fpos, err := n.Pos.Pretest(100e3, 1, nil)
	if err != nil {
		return nil, err
	}
	fneg, err := n.Neg.Pretest(100e3, 1, nil)
	if err != nil {
		return nil, err
	}
	xmean := trainSet.MeanInput()

	identity := ncs.IdentityMap(trainSet.Features())
	random, err := mapping.Random(trainSet.Features(), n.PhysRows(), rng.New(seed+7))
	if err != nil {
		return nil, err
	}
	greedy, err := mapping.Greedy(w, fpos, fneg, xmean)
	if err != nil {
		return nil, err
	}
	optimal, err := mapping.Optimal(w, fpos, fneg)
	if err != nil {
		return nil, err
	}

	res := &MappersResult{Sigma: sigma}
	for _, tc := range []struct {
		name string
		m    []int
	}{
		{"identity", identity},
		{"random", random},
		{"greedy", greedy},
		{"hungarian", optimal},
	} {
		if err := n.SetRowMap(tc.m); err != nil {
			return nil, err
		}
		if err := n.ProgramWeights(w, hw.ProgramOptions{}); err != nil {
			return nil, err
		}
		rate, err := n.Evaluate(testSet)
		if err != nil {
			return nil, err
		}
		res.Names = append(res.Names, tc.name)
		res.SWV = append(res.SWV, mapping.TotalSWV(w, fpos, fneg, tc.m))
		res.TestRate = append(res.TestRate, rate)
	}
	return res, nil
}
