package experiment

import (
	"context"
	"fmt"

	"vortex/internal/core"
	"vortex/internal/dataset"
	"vortex/internal/ncs"
	"vortex/internal/rng"
)

// PrecisionResult reports the write-precision study: test rate versus the
// number of programming-DAC levels per polarity, with and without device
// variation. The paper assumes continuous analog programming; practical
// drivers quantize the target conductances, and this experiment shows
// where that budget saturates — the write-side dual of the Fig. 8
// (read-side ADC) analysis.
type PrecisionResult struct {
	Levels    []int
	CleanRate []float64 // sigma = 0
	VarRate   []float64 // sigma = Sigma
	Sigma     float64
}

func (r *PrecisionResult) cells() ([]string, [][]string) {
	rows := make([][]string, len(r.Levels))
	for i := range r.Levels {
		rows[i] = []string{
			intS(r.Levels[i]), pct(r.CleanRate[i]), pct(r.VarRate[i]),
		}
	}
	return []string{"write levels", "clean%", "sigma=" + f3(r.Sigma) + "%"}, rows
}

// Table renders the result as an aligned text table.
func (r *PrecisionResult) Table() string { return textTable(r.cells()) }

// CSV renders the result as comma-separated values for plotting.
func (r *PrecisionResult) CSV() string { return csvTable(r.cells()) }

// Annotation implements Result.
func (r *PrecisionResult) Annotation() string {
	return fmt.Sprintf("(variation column at sigma=%.1f)\n", r.Sigma)
}

func init() {
	register(Runner{
		Name:        "precision",
		Description: "Extension — write precision: test rate vs programming-DAC levels",
		Run: func(ctx context.Context, s Scale, seed uint64) (Result, error) {
			return Precision(ctx, s, seed)
		},
	})
}

// Precision sweeps the programming-DAC level count and measures the
// Vortex test rate on clean and varied hardware.
func Precision(ctx context.Context, scale Scale, seed uint64) (*PrecisionResult, error) {
	p := protoFor(scale)
	trainSet, testSet, err := dataset.Digits(p.perClassTrain, p.perClassTest, p.factor, seed)
	if err != nil {
		return nil, err
	}
	levels := []int{1, 2, 4, 8, 16, 32}
	if scale == Quick {
		levels = []int{1, 4, 16}
	}
	const sigma = 0.4
	res := &PrecisionResult{Levels: levels, Sigma: sigma}
	for _, lv := range levels {
		lv := lv
		runOne := func(s float64) (float64, error) {
			return parallelMean(ctx, p.mcRuns, func(mc int) (float64, error) {
				cfg := ncs.DefaultConfig(trainSet.Features(), 10)
				cfg.Backend = fastBackend(scale, 0)
				cfg.Sigma = s
				cfg.WriteLvls = lv
				n, err := ncs.New(cfg, rng.New(seed+uint64(97*lv+13*mc)))
				if err != nil {
					return 0, err
				}
				vcfg := core.DefaultVortexConfig()
				vcfg.UseSelfTune = false
				vcfg.Gamma = 0.05
				vcfg.SigmaOverride = s
				if s == 0 {
					vcfg.Gamma = 0
					vcfg.SigmaOverride = 1e-9 // effectively no variation model
					vcfg.UseAMP = false
				}
				vcfg.SGD = p.sgd
				vcfg.PretestSenses = 1
				if _, err := core.TrainVortex(n, trainSet, vcfg, rng.New(seed+uint64(31*lv+7*mc))); err != nil {
					return 0, err
				}
				return n.Evaluate(testSet)
			})
		}
		clean, err := runOne(0)
		if err != nil {
			return nil, err
		}
		varied, err := runOne(sigma)
		if err != nil {
			return nil, err
		}
		res.CleanRate = append(res.CleanRate, clean)
		res.VarRate = append(res.VarRate, varied)
	}
	return res, nil
}
