package experiment

import (
	"context"
	"fmt"

	"vortex/internal/dataset"
	"vortex/internal/rng"
	"vortex/internal/train"
)

// Fig9Result holds the redundancy/robustness tradeoff of paper Fig. 9:
// Vortex test rate versus the number of redundant rows p at several sigma
// levels, with the conventional OLD and CLD test rates (no redundancy) as
// baselines, and the average improvement of redundancy-free Vortex over
// both.
type Fig9Result struct {
	Redundancies []int
	Sigmas       []float64
	Vortex       [][]float64 // Vortex[si][pi]
	OLD          []float64   // per sigma, p = 0
	CLD          []float64   // per sigma, p = 0
	// Mean over sigmas of (Vortex@p=0 - baseline), in rate points.
	AvgGainOverOLD float64
	AvgGainOverCLD float64
}

func (r *Fig9Result) cells() ([]string, [][]string) {
	header := []string{"sigma \\ p"}
	for _, p := range r.Redundancies {
		header = append(header, "p="+intS(p))
	}
	header = append(header, "OLD", "CLD")
	rows := make([][]string, len(r.Sigmas))
	for si, s := range r.Sigmas {
		row := []string{f3(s)}
		for pi := range r.Redundancies {
			row = append(row, pct(r.Vortex[si][pi]))
		}
		row = append(row, pct(r.OLD[si]), pct(r.CLD[si]))
		rows[si] = row
	}
	return header, rows
}

// Table renders the result as an aligned text table.
func (r *Fig9Result) Table() string { return textTable(r.cells()) }

// CSV renders the result as comma-separated values for plotting.
func (r *Fig9Result) CSV() string { return csvTable(r.cells()) }

// Annotation implements Result.
func (r *Fig9Result) Annotation() string {
	return fmt.Sprintf("avg gain of Vortex(p=0): +%.1f points over OLD, +%.1f over CLD (paper: +29.6 / +26.4)\n",
		100*r.AvgGainOverOLD, 100*r.AvgGainOverCLD)
}

func init() {
	register(Runner{
		Name:        "fig9",
		Description: "Fig. 9 — design redundancy vs test rate, with OLD/CLD baselines",
		Run: func(ctx context.Context, s Scale, seed uint64) (Result, error) {
			return Fig9(ctx, s, seed)
		},
	})
}

// Fig9 sweeps the design redundancy at several variation levels and
// contrasts Vortex with the conventional schemes, as in paper Sec. 5.3.
func Fig9(ctx context.Context, scale Scale, seed uint64) (*Fig9Result, error) {
	p := protoFor(scale)
	trainSet, testSet, err := dataset.Digits(p.perClassTrain, p.perClassTest, p.factor, seed)
	if err != nil {
		return nil, err
	}
	var reds []int
	var sigmas []float64
	switch scale {
	case Quick:
		reds = []int{0, 10}
		sigmas = []float64{0.8}
	case Full:
		reds = []int{0, 20, 40, 60, 80, 100}
		sigmas = []float64{0.4, 0.6, 0.8}
	default:
		reds = []int{0, 20, 50, 100}
		sigmas = []float64{0.4, 0.6, 0.8}
	}
	res := &Fig9Result{Redundancies: reds, Sigmas: sigmas}

	for si, sigma := range sigmas {
		if err := ctx.Err(); err != nil {
			if partialSweep(ctx) {
				break // render the sigma rows already swept
			}
			return nil, err
		}
		// One software gamma scan per sigma, reused across the p sweep.
		_, gamma, _, err := train.SelfTune(trainSet, train.SelfTuneConfig{
			Sigma:  sigma,
			MCRuns: p.mcRuns,
			SGD:    p.sgd,
		}, rng.New(seed+90*uint64(si)+5))
		if err != nil {
			return nil, err
		}
		rates := make([]float64, len(reds))
		for pi, red := range reds {
			rate, err := vortexTestRate(ctx, fastBackend(scale, 0), trainSet, testSet, sigma, 0, red, 6, 6,
				gamma, p.sgd, p.mcRuns, seed+uint64(17*si+pi))
			if err != nil {
				return nil, err
			}
			rates[pi] = rate
		}
		res.Vortex = append(res.Vortex, rates)

		// Baselines without redundancy, averaged over fabrications.
		var oldSum, cldSum float64
		for mc := 0; mc < p.mcRuns; mc++ {
			nOLD, err := buildNCS(fastBackend(scale, 0), trainSet.Features(), 0, sigma, 0, 6, seed+uint64(301*si+7*mc))
			if err != nil {
				return nil, err
			}
			if _, err := train.OLD(nOLD, trainSet, train.OLDConfig{SGD: p.sgd},
				rng.New(seed+uint64(13*si+mc))); err != nil {
				return nil, err
			}
			r, err := nOLD.Evaluate(testSet)
			if err != nil {
				return nil, err
			}
			oldSum += r

			nCLD, err := buildNCS(fastBackend(scale, 0), trainSet.Features(), 0, sigma, 0, 6, seed+uint64(301*si+7*mc))
			if err != nil {
				return nil, err
			}
			if _, err := train.CLD(nCLD, trainSet, train.CLDConfig{Epochs: p.cldEpochs},
				rng.New(seed+uint64(13*si+mc))); err != nil {
				return nil, err
			}
			r, err = nCLD.Evaluate(testSet)
			if err != nil {
				return nil, err
			}
			cldSum += r
		}
		res.OLD = append(res.OLD, oldSum/float64(p.mcRuns))
		res.CLD = append(res.CLD, cldSum/float64(p.mcRuns))
	}
	// A partial run rendered only the completed sigma rows; shrink the
	// axis so the table stays rectangular and average the gains over the
	// rows that exist.
	res.Sigmas = res.Sigmas[:len(res.Vortex)]
	for si := range res.Sigmas {
		res.AvgGainOverOLD += res.Vortex[si][0] - res.OLD[si]
		res.AvgGainOverCLD += res.Vortex[si][0] - res.CLD[si]
	}
	if len(res.Sigmas) > 0 {
		res.AvgGainOverOLD /= float64(len(res.Sigmas))
		res.AvgGainOverCLD /= float64(len(res.Sigmas))
	}
	return res, nil
}
