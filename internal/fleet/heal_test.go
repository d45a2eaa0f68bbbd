package fleet

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"vortex/internal/dataset"
	"vortex/internal/fault"
)

// fleetAccuracy is f.Accuracy(set), failing t on a read error.
func fleetAccuracy(t *testing.T, f *Fleet, set *dataset.Set) float64 {
	t.Helper()
	acc, err := f.Accuracy(set)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

// TestKillAndHealEndToEnd is the acceptance scenario: synthetic traffic
// flows against a three-member fleet, one member takes a 10% stuck-rate
// burst mid-traffic, and the health controller must detect it on a
// routine scan, bench and repair it, and hand it back through the
// breaker's half-open probation — while the fleet answers at least 99%
// of requests and ends within two accuracy points of its pre-fault
// baseline.
func TestKillAndHealEndToEnd(t *testing.T) {
	set := testSet(t, 12, 11)
	w := testWeights(t, set)
	specs := []MemberSpec{
		programmedMember(t, "a0", w, 0.25, 8, 501),
		programmedMember(t, "a1", w, 0.25, 8, 502),
		programmedMember(t, "a2", w, 0.25, 8, 503),
	}
	f, err := New(Config{Breaker: BreakerConfig{ProbeSuccesses: 3}}, specs)
	if err != nil {
		t.Fatal(err)
	}
	baseline := fleetAccuracy(t, f, set)
	if baseline < 0.9 {
		t.Fatalf("pre-fault baseline %v too weak to measure a 2-point drop", baseline)
	}

	c := NewController(f, ControllerConfig{
		Repair:        fault.Policy{Verify: verifyOpts},
		ScanEvery:     2,
		RejoinDamage:  0.05,
		DegradeDamage: 0.12,
		Probe:         set,
		ProbeBaseline: baseline,
		ProbeMargin:   0.02,
	})
	aging, err := NewAging(f, AgingConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	// Background traffic: four clients hammer the router for the whole
	// scenario, counting unanswered requests.
	var stop atomic.Bool
	var unanswered atomic.Int64
	var wg sync.WaitGroup
	for wkr := 0; wkr < 4; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if _, err := f.Classify(set.Samples[(wkr+i)%set.Len()].Pixels); err != nil {
					unanswered.Add(1)
				}
			}
		}(wkr)
	}

	ctx := context.Background()
	victim := f.Member("a0")
	healed := false
	burstDone := false
	// Drive the control plane: a few warm-up ticks under healthy
	// traffic, then the burst, then tick until the victim is back in
	// rotation with a closed breaker (live probe reads close it).
	for tick := 0; tick < 400; tick++ {
		c.Tick(ctx)
		c.Quiesce()
		if tick == 3 {
			rep, err := aging.Burst("a0", fault.Config{StuckRate: 0.10}, 99)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Stuck == 0 {
				t.Fatal("burst killed nothing")
			}
			burstDone = true
		}
		if burstDone && victim.State() == Serving &&
			victim.Breaker().State() == BreakerClosed && c.Stats().Repairs >= 1 {
			healed = true
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if !healed {
		t.Fatalf("victim never healed: state %v breaker %v stats %+v",
			victim.State(), victim.Breaker().State(), c.Stats())
	}

	// The controller saw the damage (health dipped below 1) and ran at
	// least one real repair.
	if victim.Health() >= 1 {
		t.Fatalf("victim health %v, scan never saw the burst", victim.Health())
	}
	st := f.Stats()
	if st.Requests == 0 {
		t.Fatal("no traffic flowed")
	}
	avail := st.Availability()
	if unanswered.Load() > 0 || avail < 0.99 {
		t.Fatalf("availability %.4f (%d unanswered of %d)", avail, unanswered.Load(), st.Requests)
	}

	// End state: fleet accuracy within 2 points of the pre-fault
	// baseline, with the healed member actually taking traffic again.
	after := fleetAccuracy(t, f, set)
	if after < baseline-0.02 {
		t.Fatalf("post-heal accuracy %v, baseline %v (drop > 2 points)", after, baseline)
	}
	servedBefore := victim.Served()
	for i := 0; i < 12; i++ {
		if _, err := f.Classify(set.Samples[i%set.Len()].Pixels); err != nil {
			t.Fatal(err)
		}
	}
	if victim.Served() == servedBefore {
		t.Fatal("healed member took no traffic after rejoining")
	}
}
