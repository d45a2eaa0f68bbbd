package train

import (
	"errors"

	"vortex/internal/dataset"
	"vortex/internal/mat"
	"vortex/internal/obs"
	"vortex/internal/opt"
	"vortex/internal/rng"
	"vortex/internal/stats"
)

// GammaPoint records one point of the self-tuning scan, mirroring the
// curves of the paper's Fig. 4.
type GammaPoint struct {
	Gamma          float64
	TrainRate      float64 // software training rate at this gamma
	CleanValRate   float64 // validation rate without injected variation
	VariedValRate  float64 // validation rate with injected variation (averaged)
	SelectedByScan bool
}

// SelfTuneConfig controls the validation-driven gamma scan of Fig. 5.
type SelfTuneConfig struct {
	Gammas      []float64 // scan grid; default {0, 0.1, ..., 0.6}
	ValFraction float64   // fraction of samples held out for validation; default 0.2
	MCRuns      int       // variation injections per gamma; default 5
	Sigma       float64   // lognormal variation model parameter
	Confidence  float64   // chi-square confidence for rho; default 0.9
	SGD         opt.SGDConfig
	Classes     int // default dataset.NumClasses
}

func (c SelfTuneConfig) withDefaults() SelfTuneConfig {
	if len(c.Gammas) == 0 {
		c.Gammas = []float64{0, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4}
	}
	if c.ValFraction <= 0 || c.ValFraction >= 1 {
		c.ValFraction = 0.2
	}
	if c.MCRuns <= 0 {
		c.MCRuns = 5
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		c.Confidence = 0.9
	}
	if c.Classes <= 0 {
		c.Classes = dataset.NumClasses
	}
	return c
}

// InjectVariation returns a copy of w with every element multiplied by an
// independent lognormal factor e^theta, theta ~ N(0, sigma^2) — the
// variation model the self-tuning loop injects before validating
// (paper Sec. 4.1.3).
func InjectVariation(w *mat.Matrix, sigma float64, src *rng.Source) *mat.Matrix {
	out := w.Clone()
	if sigma <= 0 {
		return out
	}
	for i := range out.Data {
		out.Data[i] *= src.LogNormal(0, sigma)
	}
	return out
}

// VariedAccuracy evaluates the mean classification accuracy of w on
// (x, labels) over runs independent lognormal variation injections.
func VariedAccuracy(x *mat.Matrix, labels []int, w *mat.Matrix, sigma float64, runs int, src *rng.Source) float64 {
	if runs <= 0 {
		runs = 1
	}
	total := 0.0
	for r := 0; r < runs; r++ {
		total += opt.Accuracy(x, labels, InjectVariation(w, sigma, src))
	}
	return total / float64(runs)
}

// SelfTune runs the training-validation loop of Fig. 5: split the
// training samples, train VAT at each gamma on the large split, inject
// modeled variation and validate on the small split, pick the gamma with
// the best varied validation rate, and finally retrain at that gamma on
// all samples. It returns the final weights, the selected gamma and the
// full scan curve.
func SelfTune(set *dataset.Set, cfg SelfTuneConfig, src *rng.Source) (*mat.Matrix, float64, []GammaPoint, error) {
	if set.Len() < 10 {
		return nil, 0, nil, errors.New("train: too few samples for self-tuning")
	}
	if src == nil {
		return nil, 0, nil, errors.New("train: nil rng source")
	}
	cfg = cfg.withDefaults()
	valN := int(float64(set.Len()) * cfg.ValFraction)
	if valN < 1 {
		valN = 1
	}
	trainSet, valSet, err := set.Split(set.Len() - valN)
	if err != nil {
		return nil, 0, nil, err
	}
	xTrain, lTrain := trainSet.ToMatrix()
	xVal, lVal := valSet.ToMatrix()
	rho := stats.ThetaNormBound(cfg.Sigma, xTrain.Cols, cfg.Confidence)

	defer obs.StartSpan("train.selftune", "gammas", len(cfg.Gammas)).End()
	points := obs.Default().Counter("train.selftune.points")
	curve := make([]GammaPoint, 0, len(cfg.Gammas))
	best := -1
	for gi, gamma := range cfg.Gammas {
		if gamma < 0 || gamma > 1 {
			return nil, 0, nil, errors.New("train: gamma out of [0,1]")
		}
		gsp := obs.StartSpan("train.selftune.gamma", "gamma", gamma)
		points.Inc()
		w, err := opt.TrainAll(xTrain, lTrain, cfg.Classes, gamma, rho, cfg.SGD, src.Split())
		if err != nil {
			return nil, 0, nil, err
		}
		pt := GammaPoint{
			Gamma:         gamma,
			TrainRate:     opt.Accuracy(xTrain, lTrain, w),
			CleanValRate:  opt.Accuracy(xVal, lVal, w),
			VariedValRate: VariedAccuracy(xVal, lVal, w, cfg.Sigma, cfg.MCRuns, src.Split()),
		}
		curve = append(curve, pt)
		gsp.End()
		if obs.DebugEnabled() {
			obs.Logger().Debug("selftune point", "gamma", gamma,
				"train", pt.TrainRate, "val", pt.CleanValRate, "varied", pt.VariedValRate)
		}
		if best < 0 || pt.VariedValRate > curve[best].VariedValRate {
			best = gi
		}
	}
	curve[best].SelectedByScan = true
	bestGamma := curve[best].Gamma

	// Final pass: retrain at the selected gamma on every sample.
	xAll, lAll := set.ToMatrix()
	w, err := opt.TrainAll(xAll, lAll, cfg.Classes, bestGamma, rho, cfg.SGD, src.Split())
	if err != nil {
		return nil, 0, nil, err
	}
	return w, bestGamma, curve, nil
}
