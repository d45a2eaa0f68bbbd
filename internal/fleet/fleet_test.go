package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"vortex/internal/dataset"
	"vortex/internal/hw"
	"vortex/internal/mat"
	"vortex/internal/ncs"
	"vortex/internal/opt"
	"vortex/internal/rng"
	"vortex/internal/train"
)

// Shared test workload: a small sparse-pattern classification task
// solved in software once, programmed onto every member.
const (
	tFeatures = 16
	tClasses  = 3
)

var verifyOpts = hw.VerifyOptions{TolLog: 0.01, MaxIter: 8}

func testSet(t *testing.T, perClass int, seed uint64) *dataset.Set {
	t.Helper()
	set, err := dataset.GeneratePatterns(dataset.PatternConfig{
		Classes: tClasses, Features: tFeatures, FlipProb: 0.03,
	}, perClass, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func testWeights(t *testing.T, set *dataset.Set) *mat.Matrix {
	t.Helper()
	w, err := train.SoftwareGDT(set, tClasses, opt.SGDConfig{Epochs: 40}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// newSys fabricates an NCS with ideal sensing.
func newSys(t *testing.T, sigma float64, redundancy int, seed uint64) *ncs.NCS {
	t.Helper()
	cfg := ncs.DefaultConfig(tFeatures, tClasses)
	cfg.ADCBits = 0
	cfg.Sigma = sigma
	cfg.Redundancy = redundancy
	n, err := ncs.New(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func programmedMember(t *testing.T, id string, w *mat.Matrix, sigma float64, red int, seed uint64) MemberSpec {
	t.Helper()
	n := newSys(t, sigma, red, seed)
	if _, err := n.ProgramWeightsVerify(w, verifyOpts); err != nil {
		t.Fatal(err)
	}
	return MemberSpec{ID: id, Sys: n, Weights: w}
}

// testFleet builds n programmed members over one weight matrix and
// returns the fleet, the weights and the sample set they solve.
func testFleet(t *testing.T, n int, cfg Config) (*Fleet, *mat.Matrix, *dataset.Set) {
	t.Helper()
	set := testSet(t, 12, 11)
	w := testWeights(t, set)
	specs := make([]MemberSpec, n)
	for i := range specs {
		specs[i] = programmedMember(t, fmt.Sprintf("a%d", i), w, 0.25, 4, uint64(100+17*i))
	}
	f, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	return f, w, set
}

func TestFleetValidation(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := New(Config{}, []MemberSpec{{ID: "a", Sys: nil}}); err == nil {
		t.Fatal("nil system accepted")
	}
	n := newSys(t, 0, 0, 1)
	if _, err := New(Config{}, []MemberSpec{{ID: "", Sys: n}}); err == nil {
		t.Fatal("empty id accepted")
	}
	n2 := newSys(t, 0, 0, 2)
	if _, err := New(Config{}, []MemberSpec{{ID: "a", Sys: n}, {ID: "a", Sys: n2}}); err == nil {
		t.Fatal("duplicate id accepted")
	}
}

func TestRoundRobinSpreadsLoad(t *testing.T) {
	f, _, set := testFleet(t, 3, Config{})
	for i := 0; i < 9; i++ {
		s := set.Samples[i%set.Len()]
		if _, err := f.Classify(s.Pixels); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range f.Members() {
		if m.Served() != 3 {
			t.Fatalf("member %s served %d of 9 reads, want 3", m.ID(), m.Served())
		}
	}
	st := f.Stats()
	if st.Requests != 9 || st.Answered != 9 || st.Availability() != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestRouterSkipsRepairingMembers(t *testing.T) {
	f, _, set := testFleet(t, 3, Config{})
	benched := f.Member("a1")
	benched.setState(Repairing)
	for i := 0; i < 8; i++ {
		res, err := f.Classify(set.Samples[0].Pixels)
		if err != nil {
			t.Fatal(err)
		}
		if res.Member == "a1" {
			t.Fatal("repairing member served a read")
		}
		if res.Degraded {
			t.Fatal("read flagged degraded with two healthy members up")
		}
	}
	if benched.Served() != 0 {
		t.Fatal("repairing member accumulated serves")
	}
}

func TestFailoverOnReadError(t *testing.T) {
	// The broken member has a different logical input size, so every
	// routed read fails on it with a clean error and must fail over.
	set := testSet(t, 12, 11)
	w := testWeights(t, set)
	badCfg := ncs.DefaultConfig(tFeatures+1, tClasses)
	badCfg.ADCBits = 0
	bad, err := ncs.New(badCfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{Breaker: BreakerConfig{Window: 8, TripFailures: 3, Cooldown: 50}}, []MemberSpec{
		programmedMember(t, "good0", w, 0.25, 4, 201),
		{ID: "broken", Sys: bad},
		programmedMember(t, "good1", w, 0.25, 4, 202),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		res, err := f.Classify(set.Samples[i%set.Len()].Pixels)
		if err != nil {
			t.Fatalf("read %d not failed over: %v", i, err)
		}
		if res.Member == "broken" {
			t.Fatal("broken member reported as the server")
		}
	}
	st := f.Stats()
	if st.Availability() != 1 {
		t.Fatalf("availability %v with two healthy members", st.Availability())
	}
	if st.Failovers == 0 {
		t.Fatal("no failovers recorded despite a broken member in rotation")
	}
	if f.Member("broken").Breaker().State() != BreakerOpen {
		t.Fatal("broken member's breaker never tripped on its error rate")
	}
}

func TestDegradedFallbackAndNoArrays(t *testing.T) {
	f, _, set := testFleet(t, 1, Config{})
	m := f.Member("a0")

	m.setState(Repairing)
	if _, err := f.Classify(set.Samples[0].Pixels); !errors.Is(err, ErrNoArrays) {
		t.Fatalf("err = %v, want ErrNoArrays while the only member is repairing", err)
	}

	m.setState(Degraded)
	res, err := f.Classify(set.Samples[0].Pixels)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("last-resort read not flagged degraded")
	}
	st := f.Stats()
	if st.DegradedN != 1 {
		t.Fatalf("degraded-served count %d, want 1", st.DegradedN)
	}
	if st.Requests != 2 || st.Answered != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBatchReadRoutesAndFailsOver(t *testing.T) {
	f, _, set := testFleet(t, 2, Config{})
	xs := make([][]float64, 6)
	want := make([]int, 6)
	for i := range xs {
		xs[i] = set.Samples[i].Pixels
		want[i] = set.Samples[i].Label
	}
	res, err := f.ReadBatchCtx(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classes) != 6 || len(res.Scores) != 6 {
		t.Fatalf("batch shape: %d classes, %d score rows", len(res.Classes), len(res.Scores))
	}
	correct := 0
	for i, c := range res.Classes {
		if c == want[i] {
			correct++
		}
	}
	if correct < 4 {
		t.Fatalf("batch got %d/6 right on its own training data", correct)
	}
}

// TestConcurrentTrafficIsRaceClean hammers the fleet from many
// goroutines while member states flip and stats are snapshotted — the
// -race exercise for the router's atomics-plus-member-lock contract.
func TestConcurrentTrafficIsRaceClean(t *testing.T) {
	f, _, set := testFleet(t, 3, Config{})
	const workers, reads = 8, 40
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				if _, err := f.Classify(set.Samples[(wkr+i)%set.Len()].Pixels); err != nil {
					errc <- err
					return
				}
			}
		}(wkr)
	}
	// Concurrent state churn: one member bounces in and out of repair
	// while another goroutine reads the census.
	wg.Add(2)
	go func() {
		defer wg.Done()
		m := f.Member("a2")
		for i := 0; i < 50; i++ {
			m.setState(Repairing)
			m.setState(Serving)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = f.Stats()
			_ = f.Member("a0").Health()
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Requests != workers*reads || st.Availability() != 1 {
		t.Fatalf("stats %+v", st)
	}
}
