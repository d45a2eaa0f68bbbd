package experiment

import (
	"context"
	"fmt"

	"vortex/internal/dataset"
	"vortex/internal/device"
	"vortex/internal/fault"
	"vortex/internal/fleet"
	"vortex/internal/hw"
	"vortex/internal/rng"
	"vortex/internal/train"
)

// FleetParams tunes the fleetdrift scenario. Front ends attach one to
// the context with WithFleetParams; zero fields resolve to per-scale
// defaults, so the zero value is the canonical scenario.
type FleetParams struct {
	// Traffic is the number of classification reads routed through the
	// fleet per epoch. Zero means the scale default (40/120/240 for
	// quick/default/full).
	Traffic int
	// Aging is the background stuck-conversion rate applied to every
	// array per epoch (fault.Config.StuckRate per aging step). Zero
	// means the scale default 0.002; negative means no background
	// aging at all.
	Aging float64
	// Spares is the number of fleet members beyond the first — the
	// spare budget the router and controller have to play with. Zero
	// means the scale default 2 (a three-array fleet).
	Spares int
}

// fleetParamsKey carries FleetParams through a context.
type fleetParamsKey struct{}

// WithFleetParams returns a context carrying p for the fleetdrift
// driver: cmd/vortexsim builds one from its -fleet-* flags.
func WithFleetParams(ctx context.Context, p FleetParams) context.Context {
	return context.WithValue(ctx, fleetParamsKey{}, p)
}

// fleetParamsFrom extracts the FleetParams installed by WithFleetParams
// and resolves zero fields to the scale defaults.
func fleetParamsFrom(ctx context.Context, s Scale) FleetParams {
	p, _ := ctx.Value(fleetParamsKey{}).(FleetParams)
	if p.Traffic <= 0 {
		switch s {
		case Quick:
			p.Traffic = 40
		case Full:
			p.Traffic = 240
		default:
			p.Traffic = 120
		}
	}
	switch {
	case p.Aging < 0:
		p.Aging = 0
	case p.Aging == 0:
		p.Aging = 0.002
	}
	if p.Spares <= 0 {
		p.Spares = 2
	}
	return p
}

// fleetEpochs is the scenario length per scale; the burst lands a third
// of the way in so the tail shows the healed steady state.
func fleetEpochs(s Scale) int {
	switch s {
	case Quick:
		return 9
	case Full:
		return 18
	default:
		return 12
	}
}

// FleetDriftResult reports the accuracy-versus-availability trajectory
// of an aging fleet: one row per epoch of simulated operation, with the
// mid-run fault burst and the controller's repairs visible in the
// serving census and the accuracy column.
type FleetDriftResult struct {
	Epochs   []int     // epoch index
	Time     []float64 // simulated device time at the end of the epoch [s]
	Serving  []int     // members in the Serving state after the epoch's maintenance
	Avail    []float64 // fraction of the epoch's reads answered at all
	DegFrac  []float64 // fraction of the epoch's reads served by the degraded fallback
	Accuracy []float64 // fraction of the epoch's answered reads that were correct

	Members    int     // fleet size
	Traffic    int     // reads per epoch
	AgingRate  float64 // background stuck rate per epoch
	BurstEpoch int     // epoch the one-off burst struck
	BurstRate  float64 // stuck rate of the burst
	Baseline   float64 // pre-fault fleet accuracy on the test set
	Killed     int64   // cells killed by aging and the burst
	Repairs    int64   // controller repair passes over the whole run
	Rejoins    int64   // members handed back through half-open probation
	Retired    int     // members retired by the end
	OverallAv  float64 // answered/requested over the whole run
}

func (r *FleetDriftResult) cells() ([]string, [][]string) {
	rows := make([][]string, len(r.Epochs))
	for i := range r.Epochs {
		rows[i] = []string{
			intS(r.Epochs[i]), sci(r.Time[i]), intS(r.Serving[i]),
			pct(r.Avail[i]), pct(r.DegFrac[i]), pct(r.Accuracy[i]),
		}
	}
	return []string{"epoch", "t[s]", "serving", "avail%", "degraded%", "acc%"}, rows
}

// Table renders the result as an aligned text table.
func (r *FleetDriftResult) Table() string { return textTable(r.cells()) }

// CSV renders the result as comma-separated values for plotting.
func (r *FleetDriftResult) CSV() string { return csvTable(r.cells()) }

// Annotation implements Result.
func (r *FleetDriftResult) Annotation() string {
	return fmt.Sprintf("(%d members, %d reads/epoch, aging %.3g/epoch, burst %.0f%% stuck at epoch %d; "+
		"baseline %.1f%%, overall availability %.2f%%, %d cells killed, %d repairs, %d rejoins, %d retired)\n",
		r.Members, r.Traffic, r.AgingRate, 100*r.BurstRate, r.BurstEpoch,
		100*r.Baseline, 100*r.OverallAv, r.Killed, r.Repairs, r.Rejoins, r.Retired)
}

func init() {
	register(Runner{
		Name:        "fleetdrift",
		Description: "Extension — self-healing fleet: availability and accuracy while arrays age, fail and get repaired in place",
		Run: func(ctx context.Context, s Scale, seed uint64) (Result, error) {
			return FleetDrift(ctx, s, seed)
		},
	})
}

// FleetDrift runs the operational counterpart of the paper's frozen
// accuracy numbers: a fleet of identically trained arrays serves synthetic classification traffic epoch by epoch while a
// background aging loop applies retention drift and random stuck
// conversions, a one-off burst knocks out ten percent of one array's
// cells a third of the way in, and the health controller scans, repairs
// and rejoins members without the router ever going dark. Each epoch
// reports the accuracy-versus-availability trade: the fraction of reads
// answered, the fraction served degraded, and the fraction correct.
//
// The run is deterministic in (scale, seed): traffic is sequential,
// aging streams are seeded per member, and maintenance is quiesced at
// every epoch boundary. In partial mode (-partial) a dead context stops
// the epoch loop and renders the completed epochs.
func FleetDrift(ctx context.Context, scale Scale, seed uint64) (*FleetDriftResult, error) {
	p := protoFor(scale)
	fp := fleetParamsFrom(ctx, scale)
	epochs := fleetEpochs(scale)
	trainSet, testSet, err := dataset.Digits(p.perClassTrain, p.perClassTest, p.factor, seed)
	if err != nil {
		return nil, err
	}
	w, err := train.SoftwareGDT(trainSet, dataset.NumClasses, p.sgd, rng.New(seed+3))
	if err != nil {
		return nil, err
	}

	// The fleet: identically trained members, each with its own
	// fabrication draw. Redundancy is a quarter of the rows — generous,
	// because the repair pipeline must absorb a ten-percent burst well
	// enough for the victim to rejoin.
	const sigma = 0.3
	redundancy := trainSet.Features() / 4
	vopts := hw.VerifyOptions{TolLog: 0.02, MaxIter: 5}
	members := 1 + fp.Spares
	specs := make([]fleet.MemberSpec, members)
	// The probe baseline is the weakest member's own pre-fault accuracy:
	// fabrication draws spread individual accuracies, and the rejoin gate
	// must not hold a repaired array to a bar it never met when healthy.
	probeBase := 1.0
	for i := range specs {
		n, err := buildNCS(trainSet.Features(), redundancy, sigma, 0, 6, seed+uint64(100+i))
		if err != nil {
			return nil, err
		}
		if _, err := n.ProgramWeightsVerify(w, vopts); err != nil {
			return nil, err
		}
		acc, err := n.Evaluate(testSet)
		if err != nil {
			return nil, err
		}
		if acc < probeBase {
			probeBase = acc
		}
		specs[i] = fleet.MemberSpec{ID: fmt.Sprintf("m%d", i), Sys: n, Weights: w}
	}
	fl, err := fleet.New(fleet.Config{Breaker: fleet.BreakerConfig{ProbeSuccesses: 3}}, specs)
	if err != nil {
		return nil, err
	}

	// Pre-fault baseline through the router itself, before any aging.
	baseline, err := fleetAccuracy(fl, testSet)
	if err != nil {
		return nil, err
	}

	ctrl := fleet.NewController(fl, fleet.ControllerConfig{
		Repair:        fault.Policy{Verify: vopts},
		ScanEvery:     2,
		RejoinDamage:  0.05,
		DegradeDamage: 0.12,
		Probe:         testSet,
		ProbeBaseline: probeBase,
		ProbeMargin:   0.05,
	})
	drift := device.DefaultDriftModel()
	aging, err := fleet.NewAging(fl, fleet.AgingConfig{
		Drift:      &drift,
		TimeStep:   1,
		TimeGrowth: 2, // decade-style time grid: each epoch doubles the step
		Shock:      fault.Config{StuckRate: fp.Aging},
		Seed:       seed + 9,
	})
	if err != nil {
		return nil, err
	}

	const burstRate = 0.10
	burstEpoch := epochs / 3
	res := &FleetDriftResult{
		Members: members, Traffic: fp.Traffic, AgingRate: fp.Aging,
		BurstEpoch: burstEpoch, BurstRate: burstRate, Baseline: baseline,
	}
	var totalReq, totalAns int64
	for epoch := 0; epoch < epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			if partialBreak(ctx) {
				break // render the completed epochs
			}
			return nil, err
		}
		if epoch == burstEpoch {
			if _, err := aging.Burst("m0", fault.Config{StuckRate: burstRate}, seed+77); err != nil {
				return nil, err
			}
		}

		// The epoch's traffic: sequential reads round-robined over the
		// test set. ErrNoArrays is the scenario's data (an unanswered
		// read), not a driver failure.
		var answered, correct, degraded int
		for i := 0; i < fp.Traffic; i++ {
			s := testSet.Samples[(epoch*fp.Traffic+i)%testSet.Len()]
			r, err := fl.Classify(s.Pixels)
			if err != nil {
				continue
			}
			answered++
			if r.Degraded {
				degraded++
			}
			if r.Class == s.Label {
				correct++
			}
		}
		totalReq += int64(fp.Traffic)
		totalAns += int64(answered)

		// End of epoch: the physics ages every array, then the controller
		// runs its maintenance round to completion so the row below shows
		// a settled fleet.
		if err := aging.Step(ctx); err != nil {
			return nil, err
		}
		ctrl.Tick(ctx)
		ctrl.Quiesce()

		res.Epochs = append(res.Epochs, epoch)
		res.Time = append(res.Time, aging.Now())
		res.Serving = append(res.Serving, fl.CountState(fleet.Serving))
		res.Avail = append(res.Avail, ratio(answered, fp.Traffic))
		res.DegFrac = append(res.DegFrac, ratio(degraded, fp.Traffic))
		res.Accuracy = append(res.Accuracy, ratio(correct, answered))
	}

	st := ctrl.Stats()
	res.Killed = aging.Killed()
	res.Repairs = st.Repairs
	res.Rejoins = st.Rejoins
	res.Retired = fl.CountState(fleet.Retired)
	res.OverallAv = ratio64(totalAns, totalReq)
	return res, nil
}

// fleetAccuracy classifies the whole set through the fleet router and
// returns the fraction answered correctly.
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

// ratio is a/b guarding the empty denominator.
func ratio(a, b int) float64 { return ratio64(int64(a), int64(b)) }

// ratio64 is a/b guarding the empty denominator.
func ratio64(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
