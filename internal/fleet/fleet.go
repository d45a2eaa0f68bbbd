// Package fleet turns a pool of programmed crossbar systems into one
// self-healing inference service: a router load-balances classification
// reads across healthy arrays with failover and per-array circuit
// breakers, a background aging loop (aging.go) keeps applying the
// physics the paper freezes — retention drift, endurance wear, stuck
// conversions — and a health controller (controller.go) watches
// per-array health and schedules rescan/repair/reprogram cycles without
// taking the whole fleet offline.
//
// The paper trains a crossbar once and reports accuracy at a frozen
// instant. This package is the operational counterpart: arrays age,
// fail and get repaired in place while reads keep flowing, and the
// explicit trade-off is accuracy versus availability — a request can
// always be answered by the least-bad array (flagged degraded) instead
// of not at all, until every array has been retired.
//
// Concurrency model: an xbar.Crossbar (and the ncs.NCS wrapping a pair
// of them) is not safe for concurrent use, so every member serializes all
// hardware access — reads, scans, repairs, aging — behind one mutex.
// Member state and health are atomics, so the router can skip members
// that are mid-repair without blocking on their locks. See DESIGN.md
// §11 for the full contract.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"vortex/internal/dataset"
	"vortex/internal/hw"
	"vortex/internal/mat"
	"vortex/internal/ncs"
	"vortex/internal/obs"
)

// State classifies one fleet member's position in its lifecycle.
type State int32

const (
	// Serving members take routed traffic.
	Serving State = iota
	// Degraded members failed their last repair (or the repair gave up)
	// but still answer reads; they serve only as the last resort, with
	// results flagged degraded.
	Degraded
	// Repairing members are locked by the controller for a scan/repair
	// cycle and are skipped by the router.
	Repairing
	// Retired members are permanently out of rotation: damage beyond
	// the retire threshold that repair could not claw back.
	Retired
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Serving:
		return "serving"
	case Degraded:
		return "degraded"
	case Repairing:
		return "repairing"
	case Retired:
		return "retired"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// ErrNoArrays is returned when no member of the fleet can answer a
// request: everything is retired or locked away in repair.
var ErrNoArrays = errors.New("fleet: no array able to serve")

// Member is one array system in the fleet: the NCS pair, the logical
// weights it is supposed to represent (the repair pipeline reprograms
// against them), its lifecycle state and its circuit breaker.
//
// All hardware access goes through the member mutex; state, health and
// the serve counters are atomics readable without it.
type Member struct {
	id      string
	mu      sync.Mutex // serializes sys: reads, scans, repairs, aging
	sys     *ncs.NCS
	weights *mat.Matrix

	state  atomic.Int32
	health atomic.Uint64 // float64 bits; last scan's health score
	brk    *Breaker

	served atomic.Int64 // requests answered by this member
	errs   atomic.Int64 // requests that errored on this member

	// Per-array obs series, namespaced hw.circuit.<id>.* so members do
	// not collide with each other.
	gState, gHealth  *obs.Gauge
	cServed, cErrors *obs.Counter
}

// MemberSpec describes one member at fleet construction: a programmed
// NCS and the logical weights it carries (kept for repair).
type MemberSpec struct {
	ID      string
	Sys     *ncs.NCS
	Weights *mat.Matrix
}

// ID returns the member's identifier.
func (m *Member) ID() string { return m.id }

// State returns the member's lifecycle state.
func (m *Member) State() State { return State(m.state.Load()) }

// Health returns the member's last health score in [0,1]: the
// responsiveness-weighted fraction of live cells from the controller's
// most recent scan (1 before any scan).
func (m *Member) Health() float64 { return math.Float64frombits(m.health.Load()) }

// Breaker returns the member's circuit breaker.
func (m *Member) Breaker() *Breaker { return m.brk }

// Served returns the number of requests this member answered.
func (m *Member) Served() int64 { return m.served.Load() }

// setState moves the member to s and mirrors it into the state gauge.
func (m *Member) setState(s State) {
	m.state.Store(int32(s))
	m.gState.Set(float64(s))
}

// setHealth stores the health score and mirrors it into the gauge.
func (m *Member) setHealth(h float64) {
	m.health.Store(math.Float64bits(h))
	m.gHealth.Set(h)
}

// withLock runs fn with exclusive access to the member's hardware.
func (m *Member) withLock(fn func(*ncs.NCS) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return fn(m.sys)
}

// Config sets the fleet-level knobs. The zero value resolves to the
// documented defaults.
type Config struct {
	// Breaker configures every member's circuit breaker.
	Breaker BreakerConfig
}

// Fleet is the routing pool. Reads enter through Classify/ReadBatchCtx
// and are round-robined across serving members whose breakers admit
// them, failing over member by member; when nothing healthy remains,
// the least-bad degraded member answers with the result flagged. A Fleet is
// safe for concurrent use from any number of goroutines.
type Fleet struct {
	members []*Member
	cursor  atomic.Uint64

	requests   atomic.Int64 // reads requested
	answered   atomic.Int64 // reads answered (healthy or degraded)
	degradedRq atomic.Int64 // reads answered by the degraded fallback
	failovers  atomic.Int64 // member-to-member failover hops

	cRequests, cAnswered, cDegraded, cFailovers, cUnanswered *obs.Counter
}

// New assembles a fleet over the given members. Every member starts
// Serving with a fresh breaker and health 1.
func New(cfg Config, specs []MemberSpec) (*Fleet, error) {
	if len(specs) == 0 {
		return nil, errors.New("fleet: no members")
	}
	reg := obs.Default()
	f := &Fleet{
		cRequests:   reg.Counter("fleet.requests"),
		cAnswered:   reg.Counter("fleet.answered"),
		cDegraded:   reg.Counter("fleet.degraded_served"),
		cFailovers:  reg.Counter("fleet.failovers"),
		cUnanswered: reg.Counter("fleet.unanswered"),
	}
	seen := map[string]bool{}
	for _, sp := range specs {
		if sp.Sys == nil {
			return nil, errors.New("fleet: member with nil system")
		}
		if sp.ID == "" || seen[sp.ID] {
			return nil, fmt.Errorf("fleet: missing or duplicate member id %q", sp.ID)
		}
		seen[sp.ID] = true
		prefix := hw.ArrayPrefix(sp.ID)
		m := &Member{
			id:      sp.ID,
			sys:     sp.Sys,
			weights: sp.Weights,
			brk:     newNamedBreaker(sp.ID, cfg.Breaker),
			gState:  reg.Gauge(prefix + "state"),
			gHealth: reg.Gauge(prefix + "health"),
			cServed: reg.Counter(prefix + "served"),
			cErrors: reg.Counter(prefix + "errors"),
		}
		m.setState(Serving)
		m.setHealth(1)
		f.members = append(f.members, m)
	}
	return f, nil
}

// Members returns the fleet's members (the slice is shared; treat it as
// read-only).
func (f *Fleet) Members() []*Member { return f.members }

// Member returns the member with the given id, or nil.
func (f *Fleet) Member(id string) *Member {
	for _, m := range f.members {
		if m.id == id {
			return m
		}
	}
	return nil
}

// Result is one answered classification read.
type Result struct {
	// Scores are the sensed output scores.
	Scores []float64
	// Class is the argmax class.
	Class int
	// Member is the id of the array that served the read.
	Member string
	// Degraded is true when the read was served by the last-resort
	// path: no healthy member was available and the least-bad array
	// answered instead. The answer may be less accurate than the
	// fleet's healthy baseline.
	Degraded bool
}

// BatchResult is one answered batch read.
type BatchResult struct {
	// Scores holds one score row per input.
	Scores [][]float64
	// Classes holds the argmax class per input.
	Classes []int
	// Member and Degraded are as in Result, for the whole batch.
	Member   string
	Degraded bool
}

// Classify routes one classification read: scores and argmax class for
// a logical input vector.
func (f *Fleet) Classify(x []float64) (Result, error) {
	var res Result
	err := f.route(context.Background(), func(m *Member, n *ncs.NCS) error {
		scores, err := n.Scores(x)
		if err != nil {
			return err
		}
		res.Scores = scores
		res.Class = mat.ArgMax(scores)
		res.Member = m.id
		return nil
	}, &res.Degraded)
	return res, err
}

// Accuracy classifies every sample of set through the router, one
// Classify call each in order, and returns the fraction answered
// correctly. The first read error ends it.
func (f *Fleet) Accuracy(set *dataset.Set) (float64, error) {
	correct := 0
	for _, s := range set.Samples {
		r, err := f.Classify(s.Pixels)
		if err != nil {
			return 0, err
		}
		if r.Class == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(set.Len()), nil
}

// ReadBatchCtx routes a batch of reads to one member (amortizing the
// per-member effective-weight resolution across the batch), failing the
// whole batch over to the next member on error. A deadline or
// cancellation of ctx is honored between failover hops (a read already
// running on a member's hardware is synchronous and cannot be
// interrupted mid-solve), so a dead context stops the router from
// burning more members on a request nobody is waiting for. The context
// error is returned wrapped; errors.Is(err, context.DeadlineExceeded)
// detects the blown deadline.
func (f *Fleet) ReadBatchCtx(ctx context.Context, xs [][]float64) (BatchResult, error) {
	var res BatchResult
	err := f.route(ctx, func(m *Member, n *ncs.NCS) error {
		scores, err := n.ScoresBatch(xs)
		if err != nil {
			return err
		}
		res.Scores = scores
		res.Classes = make([]int, len(scores))
		for i, s := range scores {
			res.Classes[i] = mat.ArgMax(s)
		}
		res.Member = m.id
		return nil
	}, &res.Degraded)
	return res, err
}

// route picks a member and runs the read closure against it with
// failover: first the serving members in round-robin order (breaker
// permitting), then the least-bad degraded fallback. degraded is set
// when the fallback served. The context is checked between hops; a
// dead one aborts the search with its (wrapped) error.
func (f *Fleet) route(ctx context.Context, read func(*Member, *ncs.NCS) error, degraded *bool) error {
	f.requests.Add(1)
	f.cRequests.Inc()
	n := len(f.members)
	start := int(f.cursor.Add(1)-1) % n
	tried := 0
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			f.cUnanswered.Inc()
			return fmt.Errorf("fleet: read abandoned: %w", err)
		}
		m := f.members[(start+i)%n]
		if m.State() != Serving || !m.brk.Allow() {
			continue
		}
		if tried > 0 {
			f.failovers.Add(1)
			f.cFailovers.Inc()
		}
		tried++
		if err := f.serve(m, read); err != nil {
			m.brk.Failure()
			m.errs.Add(1)
			m.cErrors.Inc()
			continue
		}
		m.brk.Success()
		f.answered.Add(1)
		f.cAnswered.Inc()
		return nil
	}
	// Graceful degradation: spares ran out. Serve from the least-bad
	// array still answering reads, flagging the result.
	if err := ctx.Err(); err != nil {
		f.cUnanswered.Inc()
		return fmt.Errorf("fleet: read abandoned: %w", err)
	}
	if m := f.leastBad(); m != nil {
		if err := f.serve(m, read); err == nil {
			*degraded = true
			f.answered.Add(1)
			f.degradedRq.Add(1)
			f.cAnswered.Inc()
			f.cDegraded.Inc()
			return nil
		}
	}
	f.cUnanswered.Inc()
	return ErrNoArrays
}

// serve runs one read closure under the member lock and accounts it.
func (f *Fleet) serve(m *Member, read func(*Member, *ncs.NCS) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := read(m, m.sys); err != nil {
		return err
	}
	m.served.Add(1)
	m.cServed.Inc()
	return nil
}

// leastBad returns the healthiest member still willing to answer reads
// (Serving members whose breakers rejected, or Degraded members), nil
// when none exists. Repairing members are excluded — their locks are
// held for a long time — and Retired members are gone for good.
func (f *Fleet) leastBad() *Member {
	var best *Member
	for _, m := range f.members {
		switch m.State() {
		case Serving, Degraded:
			if best == nil || m.Health() > best.Health() {
				best = m
			}
		}
	}
	return best
}

// CountState returns the number of members currently in state s.
func (f *Fleet) CountState(s State) int {
	n := 0
	for _, m := range f.members {
		if m.State() == s {
			n++
		}
	}
	return n
}

// Stats is a point-in-time availability snapshot of the fleet.
type Stats struct {
	Requests  int64 // reads requested
	Answered  int64 // reads answered at all
	DegradedN int64 // reads answered by the degraded fallback
	Failovers int64 // member-to-member failover hops
	Serving   int   // members currently serving
	Degraded  int   // members currently degraded
	Repairing int   // members currently under repair
	Retired   int   // members retired
}

// Availability returns answered/requests, 1 when no requests were made.
func (s Stats) Availability() float64 {
	if s.Requests == 0 {
		return 1
	}
	return float64(s.Answered) / float64(s.Requests)
}

// Stats snapshots the fleet's counters and state census.
func (f *Fleet) Stats() Stats {
	return Stats{
		Requests:  f.requests.Load(),
		Answered:  f.answered.Load(),
		DegradedN: f.degradedRq.Load(),
		Failovers: f.failovers.Load(),
		Serving:   f.CountState(Serving),
		Degraded:  f.CountState(Degraded),
		Repairing: f.CountState(Repairing),
		Retired:   f.CountState(Retired),
	}
}
