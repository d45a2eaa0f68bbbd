package train

import (
	"errors"

	"vortex/internal/adc"
	"vortex/internal/dataset"
	"vortex/internal/hw"
	"vortex/internal/ncs"
	"vortex/internal/obs"
	"vortex/internal/opt"
	"vortex/internal/rng"
)

// PVConfig controls program-and-verify training: software GDT followed by
// a per-cell program-and-verify pass on both arrays.
type PVConfig struct {
	SGD          opt.SGDConfig
	CompensateIR bool // IR compensation for the programming pulses
	SenseBits    int  // per-cell verify ADC resolution; default 8, <0 ideal
	MaxIter      int  // verify iterations per cell; default 5
	TolLog       float64
}

// PV performs program-and-verify training: the weights are trained in
// software exactly as in OLD, but each memristor is then programmed with
// a per-cell verify loop that measures and cancels its parametric
// variation. The scheme sits between OLD (no feedback at all) and CLD
// (output-level feedback): it tolerates device variation like CLD while
// keeping training off-device like OLD, at the cost of one sense per
// correction pulse. The paper's reference [7] explores this
// "digital-assisted" direction; the scheme is included here for the
// design-space ablations.
func PV(n *ncs.NCS, set *dataset.Set, cfg PVConfig, src *rng.Source) (*Result, error) {
	if src == nil {
		return nil, errors.New("train: nil rng source")
	}
	w, err := SoftwareGDT(set, n.Config().Outputs, cfg.SGD, src)
	if err != nil {
		return nil, err
	}
	var chain *adc.SenseChain
	if cfg.SenseBits >= 0 {
		bits := cfg.SenseBits
		if bits == 0 {
			bits = 8
		}
		conv, err := adc.NewConverter(bits, 0, n.Codec().GOn*1.25)
		if err != nil {
			return nil, err
		}
		chain = adc.NewSenseChain(conv, 1, nil)
	}
	vopts := hw.VerifyOptions{
		Program: hw.ProgramOptions{CompensateIR: cfg.CompensateIR},
		Chain:   chain,
		MaxIter: cfg.MaxIter,
		TolLog:  cfg.TolLog,
	}
	sp := obs.StartSpan("train.pv.program")
	out, err := n.ProgramWeightsVerify(w, vopts)
	if err != nil {
		return nil, err
	}
	obs.Default().Counter("train.pv.failed_cells").Add(int64(out.Failed()))
	sp.End()
	tr, err := n.Evaluate(set)
	if err != nil {
		return nil, err
	}
	return &Result{Weights: w, TrainRate: tr}, nil
}
