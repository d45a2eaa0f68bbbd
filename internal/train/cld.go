package train

import (
	"errors"
	"math"

	"vortex/internal/adc"
	"vortex/internal/dataset"
	"vortex/internal/device"
	"vortex/internal/hw"
	"vortex/internal/mat"
	"vortex/internal/ncs"
	"vortex/internal/obs"
	"vortex/internal/rng"
)

// CLDConfig controls close-loop on-device training.
type CLDConfig struct {
	Epochs   int     // maximum training epochs; default 40
	Rate     float64 // gradient step on the weight scale; default 4/mean(||x||^2) (tuned Widrow-Hoff step)
	Patience int     // stop after this many epochs without train-rate improvement; default 8
	MinDelta float64 // smallest per-cell conductance move worth a pulse, as a fraction of full scale; default 1e-4

	// SenseBits is the resolution of CLD's dedicated feedback ADC over
	// the system's output range. Close-loop training needs substantially
	// finer sensing than inference — the high-resolution ADC the paper
	// lists as CLD's hardware cost (Sec. 1, 3.3). Default 10; negative
	// uses the system's own output ADC instead.
	SenseBits int
}

func (c CLDConfig) withDefaults() CLDConfig {
	if c.Epochs <= 0 {
		c.Epochs = 40
	}
	if c.Patience <= 0 {
		c.Patience = 8
	}
	if c.MinDelta <= 0 {
		c.MinDelta = 1e-4
	}
	return c
}

// CLD performs close-loop on-device gradient-descent training (paper
// Sec. 2.2.3 and Eq. 1): every epoch it senses the crossbar outputs for
// each training sample through the ADC, accumulates the GDT update
// dW = rate * x^T (yhat - y), converts the update into incremental
// programming pulses on the positive/negative array pair and applies them
// at whatever voltage the parasitic network actually delivers. The
// controller dead-reckons the device states from its own pulse history —
// it cannot see individual cells — so IR-drop makes achieved and intended
// updates diverge (the beta/D effect of Eq. 2), while parametric
// variation is absorbed by the output feedback.
//
// The scheme trains on the NCS as-is; the crossbar should be freshly
// reset (all HRS) for a well-defined starting point.
func CLD(n *ncs.NCS, set *dataset.Set, cfg CLDConfig, src *rng.Source) (*Result, error) {
	if set.Len() == 0 {
		return nil, errors.New("train: empty training set")
	}
	if src == nil {
		return nil, errors.New("train: nil rng source")
	}
	defer obs.StartSpan("train.cld").End()
	cfg = cfg.withDefaults()
	ncfg := n.Config()
	inputs, outputs := ncfg.Inputs, ncfg.Outputs
	if set.Features() != inputs {
		return nil, errors.New("train: sample size does not match NCS inputs")
	}
	if cfg.Rate <= 0 {
		// Widrow-Hoff-style step, inversely proportional to the mean
		// squared input norm; the factor 4 was tuned empirically for the
		// fastest stable full-batch convergence on the digit workload.
		var sq float64
		for _, s := range set.Samples {
			for _, x := range s.Pixels {
				sq += x * x
			}
		}
		sq /= float64(set.Len())
		if sq <= 0 {
			sq = 1
		}
		cfg.Rate = 4 / sq
	}
	codec := n.Codec()
	span := codec.GOn - codec.GOff
	model := ncfg.Model
	rowMap := n.RowMap()

	// Build CLD's dedicated feedback sensing path.
	var feedback *adc.SenseChain
	switch {
	case cfg.SenseBits == 0:
		cfg.SenseBits = 10
		fallthrough
	case cfg.SenseBits > 0:
		full := n.OutputFullScale()
		if full == 0 {
			// Ideal system sensing: give the feedback path the same
			// auto-ranged differential scale the system ADC would use.
			full = 8 * ncfg.Vread * span / codec.WMax
		}
		conv, err := adc.NewConverter(cfg.SenseBits, -full, full)
		if err != nil {
			return nil, err
		}
		feedback = adc.NewSenseChain(conv, 1, nil)
	default:
		feedback = nil // use the system chain via Scores
	}

	// Controller belief of per-array conductances (dead reckoning),
	// indexed by logical row.
	gp := mat.NewMatrix(inputs, outputs)
	gn := mat.NewMatrix(inputs, outputs)
	gp.Fill(codec.GOff)
	gn.Fill(codec.GOff)

	grad := mat.NewMatrix(inputs, outputs)
	order := make([]int, set.Len())
	for i := range order {
		order[i] = i
	}

	reg := obs.Default()
	epochCount := reg.Counter("train.cld.epochs")
	pulseCount := reg.Counter("train.cld.pulses")

	bestRate := -1.0
	sinceBest := 0
	epochsRun := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		sp := obs.StartSpan("train.cld.epoch")
		epochCount.Inc()
		epochsRun = epoch + 1
		grad.Fill(0)
		correct := 0
		src.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			s := set.Samples[idx]
			var scores []float64
			var err error
			if feedback != nil {
				scores, err = n.ScoresThrough(s.Pixels, feedback)
			} else {
				scores, err = n.Scores(s.Pixels)
			}
			if err != nil {
				return nil, err
			}
			if mat.ArgMax(scores) == s.Label {
				correct++
			}
			for j := 0; j < outputs; j++ {
				e := dataset.Targets(s.Label, j) - scores[j]
				if e == 0 {
					continue
				}
				for i, x := range s.Pixels {
					if x == 0 {
						continue
					}
					grad.Add(i, j, x*e)
				}
			}
		}
		rate := float64(correct) / float64(set.Len())
		if rate > bestRate {
			bestRate = rate
			sinceBest = 0
		} else {
			if rate < bestRate-0.05 {
				// The loop is overshooting — device variation raises the
				// effective plant gain of some rows beyond the stable
				// step. Back the learning rate off, as a hardware
				// controller watching its own convergence would.
				cfg.Rate /= 2
			}
			sinceBest++
			if sinceBest >= cfg.Patience {
				sp.End()
				obs.Logger().Debug("cld stop", "reason", "patience", "epoch", epoch, "rate", rate)
				break
			}
		}

		// Translate the accumulated gradient into differential pulses.
		step := cfg.Rate / float64(set.Len())
		var pPos, pNeg []hw.CellPulse
		minDg := cfg.MinDelta * span
		for i := 0; i < inputs; i++ {
			phys := rowMap[i]
			for j := 0; j < outputs; j++ {
				dw := step * grad.At(i, j)
				if dw == 0 {
					continue
				}
				// Differential split: half the conductance move on each
				// array, respecting the device range.
				dg := dw * span / (2 * codec.WMax)
				if up := pulseFor(model, gp, i, j, dg, minDg, codec.GOff, codec.GOn); up != nil {
					pPos = append(pPos, hw.CellPulse{Row: phys, Col: j, Pulse: *up})
				}
				if up := pulseFor(model, gn, i, j, -dg, minDg, codec.GOff, codec.GOn); up != nil {
					pNeg = append(pNeg, hw.CellPulse{Row: phys, Col: j, Pulse: *up})
				}
			}
		}
		if len(pPos) == 0 && len(pNeg) == 0 {
			sp.End()
			obs.Logger().Debug("cld stop", "reason", "converged", "epoch", epoch, "rate", rate)
			break // converged: nothing left to program
		}
		// CLD does not pre-compensate IR-drop — that is its weakness.
		if err := n.Pos.ProgramBatch(pPos, hw.ProgramOptions{}); err != nil {
			return nil, err
		}
		if err := n.Neg.ProgramBatch(pNeg, hw.ProgramOptions{}); err != nil {
			return nil, err
		}
		n.Invalidate()
		pulseCount.Add(int64(len(pPos) + len(pNeg)))
		if d := sp.End(); obs.DebugEnabled() {
			obs.Logger().Debug("cld epoch", "epoch", epoch, "rate", rate,
				"pulses", len(pPos)+len(pNeg), "elapsed", d)
		}
	}

	tr, err := n.Evaluate(set)
	if err != nil {
		return nil, err
	}
	return &Result{Weights: n.DecodedWeights(), TrainRate: tr, Epochs: epochsRun}, nil
}

// pulseFor moves the controller's belief for cell (i, j) by dg (clamped
// to the device conductance range) and returns the pre-calculated pulse
// that would realize the move on a nominal device, or nil when the move
// is below the programming threshold minDg.
func pulseFor(model device.SwitchModel, g *mat.Matrix, i, j int, dg, minDg, gMin, gMax float64) *device.Pulse {
	cur := g.At(i, j)
	next := cur + dg
	if next < gMin {
		next = gMin
	} else if next > gMax {
		next = gMax
	}
	if math.Abs(next-cur) < minDg {
		return nil
	}
	// Belief state is log-resistance x = -ln g.
	p := model.PulseForTarget(-math.Log(cur), -math.Log(next))
	g.Set(i, j, next)
	if p.Width <= 0 {
		return nil
	}
	return &p
}
