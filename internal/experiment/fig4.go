package experiment

import (
	"context"
	"fmt"
	"math"

	"vortex/internal/dataset"
	"vortex/internal/opt"
	"vortex/internal/rng"
	"vortex/internal/stats"
	"vortex/internal/train"
)

// Fig4Result holds the variation-tolerance/training-rate tradeoff curves
// of paper Fig. 4: at each penalty scale gamma, the software training
// rate, the test rate without variation, and the test rate with
// variation measured on Monte-Carlo fabricated hardware.
type Fig4Result struct {
	Sigma        float64
	Gammas       []float64
	TrainRate    []float64
	TestClean    []float64
	TestWithVar  []float64
	BestGamma    float64 // argmax of TestWithVar
	BestTestRate float64
}

func (r *Fig4Result) cells() ([]string, [][]string) {
	rows := make([][]string, len(r.Gammas))
	for i := range r.Gammas {
		sel := ""
		if r.Gammas[i] == r.BestGamma {
			sel = "<- peak"
		}
		rows[i] = []string{
			f3(r.Gammas[i]), pct(r.TrainRate[i]), pct(r.TestClean[i]),
			pct(r.TestWithVar[i]), sel,
		}
	}
	return []string{"gamma", "train%", "test% (w/o var)", "test% (w/ var)", ""}, rows
}

// Table renders the result as an aligned text table.
func (r *Fig4Result) Table() string { return textTable(r.cells()) }

// CSV renders the result as comma-separated values for plotting.
func (r *Fig4Result) CSV() string { return csvTable(r.cells()) }

// Annotation implements Result.
func (r *Fig4Result) Annotation() string {
	return fmt.Sprintf("peak test rate %.1f%% at gamma=%.2f (sigma=%.1f)\n",
		100*r.BestTestRate, r.BestGamma, r.Sigma)
}

func init() {
	register(Runner{
		Name:        "fig4",
		Description: "Fig. 4 — variation tolerance vs training rate across gamma",
		Run: func(ctx context.Context, s Scale, seed uint64) (Result, error) {
			return Fig4(ctx, s, seed)
		},
	})
}

// Fig4 sweeps gamma at a fixed fabrication sigma (0.6, the paper's later
// default) and measures the tradeoff of Sec. 4.1.2. Test-with-variation
// is measured on freshly fabricated crossbar pairs programmed open loop
// with the VAT weights, averaged over the protocol's MC runs.
func Fig4(ctx context.Context, scale Scale, seed uint64) (*Fig4Result, error) {
	p := protoFor(scale)
	trainSet, testSet, err := dataset.Digits(p.perClassTrain, p.perClassTest, p.factor, seed)
	if err != nil {
		return nil, err
	}
	const sigma = 0.6
	gammas := []float64{0, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5}
	res := &Fig4Result{Sigma: sigma, Gammas: gammas}
	xTrain, lTrain := trainSet.ToMatrix()
	xTest, lTest := testSet.ToMatrix()
	rho := stats.ThetaNormBound(sigma, trainSet.Features(), 0.9)
	src := rng.New(seed + 7)

	for _, gamma := range gammas {
		if err := ctx.Err(); err != nil {
			if partialSweep(ctx) {
				break // render the gammas already swept; the rest pad to NA
			}
			return nil, err
		}
		w, err := opt.TrainAll(xTrain, lTrain, dataset.NumClasses, gamma, rho, p.sgd, src.Split())
		if err != nil {
			return nil, err
		}
		res.TrainRate = append(res.TrainRate, opt.Accuracy(xTrain, lTrain, w))
		res.TestClean = append(res.TestClean, opt.Accuracy(xTest, lTest, w))

		// Hardware test rate with variation, averaged over fabrications.
		// The ensemble sweep routes through the trial-vectorized fast
		// path where eligible; per-trial values and the mean are
		// bit-identical either way.
		seeds := make([]uint64, p.mcRuns)
		for mc := range seeds {
			seeds[mc] = seed + 100*uint64(mc) + 11
		}
		rates, completed, err := ensembleRates(ctx, ensembleSpec{
			scale: scale, inputs: trainSet.Features(), sigma: sigma,
			adcBits: 6, weights: w, set: testSet, seeds: seeds,
		})
		if err != nil {
			return nil, err
		}
		res.TestWithVar = append(res.TestWithVar, meanRate(rates, completed))
	}
	res.TrainRate = padNaN(res.TrainRate, len(gammas))
	res.TestClean = padNaN(res.TestClean, len(gammas))
	res.TestWithVar = padNaN(res.TestWithVar, len(gammas))
	// NaN-aware argmax: a partial run picks the peak among the measured
	// gammas (if any measurement completed at all).
	best := -1
	for i, v := range res.TestWithVar {
		if !math.IsNaN(v) && (best < 0 || v > res.TestWithVar[best]) {
			best = i
		}
	}
	if best >= 0 {
		res.BestGamma = gammas[best]
		res.BestTestRate = res.TestWithVar[best]
	} else {
		res.BestGamma = math.NaN()
		res.BestTestRate = math.NaN()
	}
	return res, nil
}

// Fig4SelfTuned runs the Fig. 5 self-tuning loop on the same protocol and
// reports the gamma it selects — used to confirm the automatic scan picks
// (near) the measured peak.
func Fig4SelfTuned(ctx context.Context, scale Scale, seed uint64) (float64, []train.GammaPoint, error) {
	p := protoFor(scale)
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	trainSet, _, err := dataset.Digits(p.perClassTrain, 0, p.factor, seed)
	if err != nil {
		return 0, nil, err
	}
	_, gamma, curve, err := train.SelfTune(trainSet, train.SelfTuneConfig{
		Sigma:  0.6,
		MCRuns: p.mcRuns,
		SGD:    p.sgd,
	}, rng.New(seed+13))
	return gamma, curve, err
}
