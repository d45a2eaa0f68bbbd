package experiment

import (
	"context"
	"fmt"

	"vortex/internal/core"
	"vortex/internal/dataset"
	"vortex/internal/device"
	"vortex/internal/hw"
	"vortex/internal/ncs"
	"vortex/internal/rng"
)

// RefreshResult studies periodic reprogramming as the operational answer
// to retention drift: a programmed system is aged along a decade grid;
// one copy is left alone, one is refreshed (re-programmed to the same
// weights with a verify loop that cancels the drifted offsets) on a
// logarithmic schedule. The accumulated programming cost of the
// refreshes is reported next to the recovered accuracy, closing the loop
// between the drift model and the cost accounting.
type RefreshResult struct {
	Times     []float64
	NoRefresh []float64
	Refreshed []float64
	Refreshes int // refresh passes performed over the horizon
	PulseCost int // total pulses spent on refreshing
	Sigma     float64
	Drift     device.DriftModel
}

func (r *RefreshResult) cells() ([]string, [][]string) {
	rows := make([][]string, len(r.Times))
	for i := range r.Times {
		rows[i] = []string{
			sci(r.Times[i]), pct(r.NoRefresh[i]), pct(r.Refreshed[i]),
		}
	}
	return []string{"age [s]", "no refresh%", "refreshed%"}, rows
}

// Table renders the result as an aligned text table.
func (r *RefreshResult) Table() string { return textTable(r.cells()) }

// CSV renders the result as comma-separated values for plotting.
func (r *RefreshResult) CSV() string { return csvTable(r.cells()) }

// Annotation implements Result.
func (r *RefreshResult) Annotation() string {
	return fmt.Sprintf("(%d refreshes over the horizon, %d pulses)\n", r.Refreshes, r.PulseCost)
}

func init() {
	register(Runner{
		Name:        "refresh",
		Description: "Extension — periodic verify-refresh vs retention drift, with pulse cost",
		Run: func(ctx context.Context, s Scale, seed uint64) (Result, error) {
			return Refresh(ctx, s, seed)
		},
	})
}

// Refresh ages two identically trained systems over the decade grid,
// verify-reprogramming one at the start of every decade from 1e2 s on.
func Refresh(ctx context.Context, scale Scale, seed uint64) (*RefreshResult, error) {
	p := protoFor(scale)
	trainSet, testSet, err := dataset.Digits(p.perClassTrain, p.perClassTest, p.factor, seed)
	if err != nil {
		return nil, err
	}
	times := []float64{1, 1e2, 1e4, 1e6, 1e8}
	if scale == Quick {
		times = []float64{1, 1e4, 1e8}
	}
	const sigma = 0.3
	drift := device.DriftModel{NuMean: 0.05, NuSigma: 0.06, T0: 1}
	res := &RefreshResult{Times: times, Sigma: sigma, Drift: drift}

	build := func() (*ncs.NCS, *core.VortexResult, error) {
		// Retention drift needs the circuit backend (hw.Ager).
		n, err := buildNCS(hw.Circuit, trainSet.Features(), trainSet.Features()/8, sigma, 0, 6, seed+10)
		if err != nil {
			return nil, nil, err
		}
		if err := n.InitDrift(drift, rng.New(seed+11)); err != nil {
			return nil, nil, err
		}
		cfg := core.DefaultVortexConfig()
		cfg.UseSelfTune = false
		cfg.Gamma = 0.05
		cfg.SigmaOverride = sigma
		cfg.SGD = p.sgd
		cfg.PretestSenses = 1
		r, err := core.TrainVortex(n, trainSet, cfg, rng.New(seed+12))
		if err != nil {
			return nil, nil, err
		}
		return n, r, nil
	}

	plain, _, err := build()
	if err != nil {
		return nil, err
	}
	refreshed, trained, err := build() // identical fabrication and training
	if err != nil {
		return nil, err
	}
	refreshed.Pos.ResetStats()
	refreshed.Neg.ResetStats()

	nextRefresh := 1e2
	res.NoRefresh = make([]float64, len(times))
	res.Refreshed = make([]float64, len(times))
	for ti, t := range times {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := plain.AgeTo(t); err != nil {
			return nil, err
		}
		for nextRefresh <= t {
			if err := refreshed.AgeTo(nextRefresh); err != nil {
				return nil, err
			}
			if _, err := refreshed.ProgramWeightsVerify(trained.Weights, hw.VerifyOptions{}); err != nil {
				return nil, err
			}
			res.Refreshes++
			nextRefresh *= 10
		}
		if err := refreshed.AgeTo(t); err != nil {
			return nil, err
		}
		r1, err := plain.Evaluate(testSet)
		if err != nil {
			return nil, err
		}
		r2, err := refreshed.Evaluate(testSet)
		if err != nil {
			return nil, err
		}
		res.NoRefresh[ti] = r1
		res.Refreshed[ti] = r2
	}
	st := refreshed.Pos.Stats()
	st.Add(refreshed.Neg.Stats())
	res.PulseCost = st.Pulses
	return res, nil
}
