package serve

import (
	"errors"
	"fmt"

	"vortex/internal/dataset"
	"vortex/internal/fleet"
	"vortex/internal/hw"
	"vortex/internal/mat"
	"vortex/internal/ncs"
	"vortex/internal/obs"
	"vortex/internal/opt"
	"vortex/internal/rng"
	"vortex/internal/train"
)

// BootConfig describes the serving fleet a command boots: how big the
// benchmark protocol is, how many arrays back the router, and the
// fabrication knobs. Zero fields resolve to the documented defaults.
type BootConfig struct {
	// Scale names the benchmark protocol the fleet is trained for:
	// "quick" (7x7 inputs, seconds to boot), "default" (14x14) or
	// "full" (the paper's 784-input protocol). Default "quick".
	Scale string
	// Members is the number of arrays in the fleet. Default 3.
	Members int
	// Backend is read by nothing: every member is an ncs.NCS over two
	// xbar.Crossbar arrays.
	//
	// Deprecated: it stays only because perfbench/serve.go:59 sets it;
	// it goes with hw.Backend.
	Backend hw.Backend
	// Sigma is the lognormal fabrication variation. Default 0.3.
	Sigma float64
	// Seed drives training and every member's fabrication draw; a
	// (Scale, Seed) pair boots a bit-reproducible fleet. Default 42.
	Seed uint64
}

func (c BootConfig) withDefaults() BootConfig {
	if c.Scale == "" {
		c.Scale = "quick"
	}
	if c.Members == 0 {
		c.Members = 3
	}
	if c.Sigma == 0 {
		c.Sigma = 0.3
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// bootProtocol is the per-scale benchmark protocol (mirrors the
// experiment package's scales without importing its registry).
type bootProtocol struct {
	factor        int // undersampling factor from 28x28
	perClassTrain int
	perClassTest  int
	epochs        int
}

// bootProtoFor resolves a scale name.
func bootProtoFor(scale string) (bootProtocol, error) {
	switch scale {
	case "quick":
		return bootProtocol{factor: 4, perClassTrain: 25, perClassTest: 15, epochs: 20}, nil
	case "default":
		return bootProtocol{factor: 2, perClassTrain: 120, perClassTest: 70, epochs: 40}, nil
	case "full":
		return bootProtocol{factor: 1, perClassTrain: 400, perClassTest: 200, epochs: 60}, nil
	default:
		return bootProtocol{}, fmt.Errorf("serve: unknown scale %q (want quick, default or full)", scale)
	}
}

// Boot is a ready-to-serve fleet: the router over programmed members,
// the input dimension requests must carry, the training baseline and
// the held-out test set (the probe/load workload).
type Boot struct {
	// Fleet is the router over the programmed members.
	Fleet *fleet.Fleet
	// Inputs is the logical input dimension (pixels).
	Inputs int
	// Test is the held-out evaluation set matching the scale and seed —
	// the same set LoadSet returns, so a load generator pointed at this
	// fleet measures real accuracy.
	Test *dataset.Set
	// Accuracy is the booted fleet's test accuracy through the router,
	// before any traffic.
	Accuracy float64
}

// BuildFleet trains one weight matrix on the scale's synthetic digit
// benchmark, fabricates Members identically-trained arrays (distinct
// fabrication draws), programs them, and assembles the routing fleet.
// Deterministic in (Scale, Seed). Each stage records a span:
// serve.boot.render (both digit sets), serve.boot.train,
// serve.boot.program (fabricating and programming the members) and
// serve.boot.accuracy (the test set through the router).
func BuildFleet(cfg BootConfig) (*Boot, error) {
	cfg = cfg.withDefaults()
	if cfg.Members < 1 {
		return nil, errors.New("serve: need at least one member")
	}
	p, err := bootProtoFor(cfg.Scale)
	if err != nil {
		return nil, err
	}
	// The test set is LoadSet's: Digits draws it from a source of its
	// own.
	sp := obs.StartSpan("serve.boot.render")
	trainSet, testSet, err := dataset.Digits(p.perClassTrain, p.perClassTest, p.factor, cfg.Seed)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = obs.StartSpan("serve.boot.train")
	w, err := train.SoftwareGDT(trainSet, dataset.NumClasses,
		opt.SGDConfig{Epochs: p.epochs}, rng.New(cfg.Seed+3))
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = obs.StartSpan("serve.boot.program")
	fl, err := programFleet(cfg, trainSet.Features(), w)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = obs.StartSpan("serve.boot.accuracy")
	acc, err := fleetAccuracy(fl, testSet)
	sp.End()
	if err != nil {
		return nil, err
	}
	return &Boot{
		Fleet:    fl,
		Inputs:   trainSet.Features(),
		Test:     testSet,
		Accuracy: acc,
	}, nil
}

// programFleet fabricates cfg.Members arrays of the given input width,
// each from its own seed, programs w into every one and assembles the
// router over them.
func programFleet(cfg BootConfig, features int, w *mat.Matrix) (*fleet.Fleet, error) {
	specs := make([]fleet.MemberSpec, cfg.Members)
	for i := range specs {
		nc := ncs.DefaultConfig(features, dataset.NumClasses)
		nc.Sigma = cfg.Sigma
		sys, err := ncs.New(nc, rng.New(cfg.Seed+uint64(100+i)))
		if err != nil {
			return nil, err
		}
		if err := sys.ProgramWeights(w, hw.ProgramOptions{}); err != nil {
			return nil, err
		}
		specs[i] = fleet.MemberSpec{ID: fmt.Sprintf("m%d", i), Sys: sys, Weights: w}
	}
	return fleet.New(fleet.Config{}, specs)
}

// LoadSet returns the held-out test set a fleet booted with the same
// (scale, seed) was evaluated on — the load generator's input source,
// guaranteed to match the server's input dimension and labels. It
// renders the test set alone: no training samples.
func LoadSet(scale string, seed uint64) (*dataset.Set, error) {
	if scale == "" {
		scale = "quick"
	}
	if seed == 0 {
		seed = 42
	}
	p, err := bootProtoFor(scale)
	if err != nil {
		return nil, err
	}
	_, testSet, err := dataset.Digits(0, p.perClassTest, p.factor, seed)
	return testSet, err
}

// fleetAccuracy classifies the whole set through the router and returns
// the fraction answered correctly.
func fleetAccuracy(fl *fleet.Fleet, set *dataset.Set) (float64, error) {
	correct := 0
	for _, s := range set.Samples {
		r, err := fl.Classify(s.Pixels)
		if err != nil {
			return 0, err
		}
		if r.Class == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(set.Len()), nil
}
