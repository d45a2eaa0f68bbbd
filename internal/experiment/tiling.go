package experiment

import (
	"context"
	"fmt"

	"vortex/internal/dataset"
	"vortex/internal/hw"
	"vortex/internal/rng"
	"vortex/internal/tile"
	"vortex/internal/train"
)

// TilingResult reports the crossbar-partitioning study: test rate versus
// tile height under wire parasitics, with and without the pre-calculated
// IR compensation, next to the periphery cost (independently sensed
// channels). Tiling is the architectural alternative to compensation
// that Table 1 motivates: short columns suffer little IR-drop.
type TilingResult struct {
	TileRows []int // logical rows per tile (0 = monolithic)
	RateRaw  []float64
	RateComp []float64
	Channels []int
	Sigma    float64
	RWire    float64
	Inputs   int
}

func (r *TilingResult) cells() ([]string, [][]string) {
	rows := make([][]string, len(r.TileRows))
	for i, tr := range r.TileRows {
		name := intS(tr)
		if tr == 0 || tr >= r.Inputs {
			name = intS(r.Inputs) + " (monolithic)"
		}
		rows[i] = []string{
			name, pct(r.RateRaw[i]), pct(r.RateComp[i]), intS(r.Channels[i]),
		}
	}
	return []string{"rows/tile", "raw program%", "IR-compensated%", "sense channels"}, rows
}

// Table renders the result as an aligned text table.
func (r *TilingResult) Table() string { return textTable(r.cells()) }

// CSV renders the result as comma-separated values for plotting.
func (r *TilingResult) CSV() string { return csvTable(r.cells()) }

// Annotation implements Result.
func (r *TilingResult) Annotation() string {
	return fmt.Sprintf("(sigma=%.1f, r_wire=%.1f ohm, %d inputs)\n", r.Sigma, r.RWire, r.Inputs)
}

func init() {
	register(Runner{
		Name:        "tiling",
		Description: "Extension — crossbar tiling: tile height vs test rate under IR-drop",
		Run: func(ctx context.Context, s Scale, seed uint64) (Result, error) {
			return Tiling(ctx, s, seed)
		},
	})
}

// Tiling sweeps the tile height with VAT-trained weights programmed both
// raw (no IR compensation) and compensated, averaged over fabrications.
func Tiling(ctx context.Context, scale Scale, seed uint64) (*TilingResult, error) {
	p := protoFor(scale)
	if scale == Quick {
		// IR-drop needs column length to matter: keep the 14x14 geometry
		// even at quick scale, with the reduced sample counts.
		p.factor = 2
	}
	trainSet, testSet, err := dataset.Digits(p.perClassTrain, p.perClassTest, p.factor, seed)
	if err != nil {
		return nil, err
	}
	inputs := trainSet.Features()
	var tileRows []int
	switch scale {
	case Quick:
		tileRows = []int{0, inputs / 4}
	default:
		tileRows = []int{0, inputs / 2, inputs / 4, inputs / 8}
	}
	const sigma = 0.6
	const rwire = 2.5
	res := &TilingResult{TileRows: tileRows, Sigma: sigma, RWire: rwire, Inputs: inputs}

	// One VAT training pass shared across the sweep.
	w, err := train.SoftwareVAT(trainSet, 10, 0.05, sigma, 0.9, p.sgd, rng.New(seed+3))
	if err != nil {
		return nil, err
	}

	for ti, tr := range tileRows {
		tr := tr
		run := func(compensate bool) (float64, error) {
			return parallelMean(ctx, p.mcRuns, func(mc int) (float64, error) {
				cfg := tile.Config{
					MaxRows: tr,
					Sigma:   sigma,
					RWire:   rwire,
					ADCBits: 6,
				}
				a, err := tile.New(inputs, 10, cfg, rng.New(seed+uint64(900*ti+17*mc)))
				if err != nil {
					return 0, err
				}
				if err := a.ProgramWeights(w, hw.ProgramOptions{CompensateIR: compensate}); err != nil {
					return 0, err
				}
				return a.Evaluate(testSet)
			})
		}
		raw, err := run(false)
		if err != nil {
			return nil, err
		}
		comp, err := run(true)
		if err != nil {
			return nil, err
		}
		res.RateRaw = append(res.RateRaw, raw)
		res.RateComp = append(res.RateComp, comp)
		a, err := tile.New(inputs, 10, tile.Config{MaxRows: tr, ADCBits: -1}, rng.New(seed))
		if err != nil {
			return nil, err
		}
		res.Channels = append(res.Channels, a.SenseChannels())
	}
	return res, nil
}
