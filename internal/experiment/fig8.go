package experiment

import (
	"context"

	"vortex/internal/dataset"
	"vortex/internal/rng"
	"vortex/internal/train"
)

// Fig8Result holds the ADC-resolution analysis of paper Fig. 8: Vortex
// test rate versus ADC bit width at several device-variation levels. The
// ADC resolution acts on both the output sensing and the AMP pre-testing
// accuracy; no redundancy is used (Sec. 5.2).
type Fig8Result struct {
	Bits     []int
	Sigmas   []float64
	Rate     [][]float64 // Rate[si][bi]
	Saturate []int       // per sigma: smallest bit width within 1% of the best
}

func (r *Fig8Result) cells() ([]string, [][]string) {
	header := []string{"sigma \\ bits"}
	for _, b := range r.Bits {
		header = append(header, intS(b)+"-bit")
	}
	header = append(header, "saturates at")
	rows := make([][]string, len(r.Sigmas))
	for si, s := range r.Sigmas {
		row := []string{f3(s)}
		for bi := range r.Bits {
			row = append(row, pct(r.Rate[si][bi]))
		}
		row = append(row, intS(r.Saturate[si])+"-bit")
		rows[si] = row
	}
	return header, rows
}

// Table renders the result as an aligned text table.
func (r *Fig8Result) Table() string { return textTable(r.cells()) }

// CSV renders the result as comma-separated values for plotting.
func (r *Fig8Result) CSV() string { return csvTable(r.cells()) }

// Annotation implements Result.
func (r *Fig8Result) Annotation() string { return "" }

func init() {
	register(Runner{
		Name:        "fig8",
		Description: "Fig. 8 — ADC resolution vs test rate",
		Run: func(ctx context.Context, s Scale, seed uint64) (Result, error) {
			return Fig8(ctx, s, seed)
		},
	})
}

// Fig8 sweeps the ADC resolution for several sigma levels and measures
// the Vortex test rate, reproducing the saturation behaviour the paper
// uses to fix the ADC at 6 bits.
func Fig8(ctx context.Context, scale Scale, seed uint64) (*Fig8Result, error) {
	p := protoFor(scale)
	trainSet, testSet, err := dataset.Digits(p.perClassTrain, p.perClassTest, p.factor, seed)
	if err != nil {
		return nil, err
	}
	bits := []int{4, 5, 6, 7, 8}
	sigmas := []float64{0.4, 0.6, 0.8}
	if scale == Quick {
		sigmas = []float64{0.4, 0.8}
	}
	res := &Fig8Result{Bits: bits, Sigmas: sigmas}
	// The per-bit differences are a few rate points; use extra
	// Monte-Carlo fabrications to resolve them.
	if p.mcRuns < 5 && scale != Quick {
		p.mcRuns = 5
	}

	for si, sigma := range sigmas {
		if err := ctx.Err(); err != nil {
			if partialSweep(ctx) {
				break // render the sigma rows already swept
			}
			return nil, err
		}
		// Pick gamma once per sigma with the software self-tuning scan.
		_, gamma, _, err := train.SelfTune(trainSet, train.SelfTuneConfig{
			Sigma:  sigma,
			MCRuns: p.mcRuns,
			SGD:    p.sgd,
		}, rng.New(seed+50*uint64(si)+3))
		if err != nil {
			return nil, err
		}
		rates := make([]float64, len(bits))
		for bi, b := range bits {
			rate, err := vortexTestRate(ctx, trainSet, testSet, sigma, 0, 0, b, b,
				gamma, p.sgd, p.mcRuns, seed+uint64(100*si+10*bi))
			if err != nil {
				return nil, err
			}
			rates[bi] = rate
		}
		res.Rate = append(res.Rate, rates)
		best := 0.0
		for _, v := range rates {
			if v > best {
				best = v
			}
		}
		sat := bits[len(bits)-1]
		for bi, v := range rates {
			if v >= best-0.01 {
				sat = bits[bi]
				break
			}
		}
		res.Saturate = append(res.Saturate, sat)
	}
	// A partial run rendered only the completed sigma rows; shrink the
	// axis so the table stays rectangular.
	res.Sigmas = res.Sigmas[:len(res.Rate)]
	return res, nil
}
