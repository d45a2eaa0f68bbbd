package fleet

import (
	"fmt"
	"sync"

	"vortex/internal/obs"
)

// BreakerState is the classic three-state circuit-breaker machine.
type BreakerState uint8

const (
	// BreakerClosed passes traffic and tracks the failure rate.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects traffic; after Cooldown rejected attempts the
	// breaker moves to half-open on its own.
	BreakerOpen
	// BreakerHalfOpen admits probe traffic: ProbeSuccesses consecutive
	// successes close the breaker, any failure reopens it.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", uint8(s))
	}
}

// BreakerConfig sets the trip and recovery thresholds of a Breaker. The
// zero value resolves to the documented defaults.
type BreakerConfig struct {
	// Window is the number of recent outcomes the failure-rate trip
	// considers. Default 20.
	Window int
	// TripFailures trips the breaker when at least this many of the last
	// Window outcomes were failures. Default 5.
	TripFailures int
	// Cooldown is the number of rejected Allow calls an open breaker
	// absorbs before moving to half-open. Counting rejected attempts
	// instead of wall-clock time keeps the machine deterministic under
	// test and naturally scales the back-off with traffic. Default 10.
	Cooldown int
	// ProbeSuccesses is the number of consecutive half-open successes
	// required to close. Default 3.
	ProbeSuccesses int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 20
	}
	if c.TripFailures <= 0 {
		c.TripFailures = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10
	}
	if c.ProbeSuccesses <= 0 {
		c.ProbeSuccesses = 3
	}
	return c
}

// Breaker is a per-member circuit breaker. The router records every
// read outcome; the health controller can force it open on a bad scan
// verdict (Trip) and hand a repaired member back gently (HalfOpen), so
// a rejoining array must prove itself on live probe reads before it
// takes full traffic again. All methods are safe for concurrent use.
type Breaker struct {
	mu       sync.Mutex
	cfg      BreakerConfig
	name     string // event identity in the obs ring; "" stays silent
	state    BreakerState
	recent   []bool // ring of recent outcomes, true = failure
	pos      int    // next write position in recent
	filled   int    // outcomes recorded, saturating at Window
	rejected int    // Allow calls rejected while open
	probes   int    // consecutive half-open successes
	trips    int    // lifetime trip count
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{cfg: cfg, recent: make([]bool, cfg.Window)}
}

// newNamedBreaker builds a breaker whose state transitions are recorded
// as events in the obs ring under name (the fleet member id).
func newNamedBreaker(name string, cfg BreakerConfig) *Breaker {
	b := NewBreaker(cfg)
	b.name = name
	return b
}

// Allow reports whether a request may be routed through. While open it
// counts the rejection and flips to half-open once Cooldown rejections
// have accumulated (the flipped call itself is admitted as the first
// probe).
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed, BreakerHalfOpen:
		return true
	default: // open
		b.rejected++
		if b.rejected >= b.cfg.Cooldown {
			b.toHalfOpen()
			return true
		}
		return false
	}
}

// Success records a successful read.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.record(false)
	case BreakerHalfOpen:
		b.probes++
		if b.probes >= b.cfg.ProbeSuccesses {
			b.reset(BreakerClosed)
		}
	}
}

// Failure records a failed read: in the closed state it counts toward
// the windowed trip threshold, in half-open it reopens immediately.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.record(true)
		if b.failures() >= b.cfg.TripFailures {
			b.reset(BreakerOpen)
			b.trips++
		}
	case BreakerHalfOpen:
		b.reset(BreakerOpen)
		b.trips++
	}
}

// Trip forces the breaker open regardless of the failure window — the
// health controller's hook for a bad scan verdict, where the array
// still answers reads but answers them wrongly.
func (b *Breaker) Trip() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerOpen {
		b.reset(BreakerOpen)
		b.trips++
	}
}

// HalfOpen moves the breaker to half-open immediately, skipping the
// cooldown — the controller's hook after a successful repair, letting
// the router's probe reads decide the rejoin.
func (b *Breaker) HalfOpen() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.toHalfOpen()
}

// Reset closes the breaker and clears all history.
func (b *Breaker) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reset(BreakerClosed)
}

// State returns the current breaker state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips returns the lifetime number of closed/half-open -> open
// transitions.
func (b *Breaker) Trips() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// record pushes one outcome into the ring. Callers hold b.mu.
func (b *Breaker) record(failure bool) {
	b.recent[b.pos] = failure
	b.pos = (b.pos + 1) % len(b.recent)
	if b.filled < len(b.recent) {
		b.filled++
	}
}

// failures counts failures currently in the window. Callers hold b.mu.
func (b *Breaker) failures() int {
	n := 0
	for i := 0; i < b.filled; i++ {
		if b.recent[i] {
			n++
		}
	}
	return n
}

// reset moves to state and clears the window, rejection and probe
// counters. Named breakers record the transition as an event in the
// obs ring. Callers hold b.mu.
func (b *Breaker) reset(state BreakerState) {
	if b.name != "" && b.state != state {
		obs.RecordEvent("breaker", b.name, "from", b.state, "to", state)
	}
	b.state = state
	for i := range b.recent {
		b.recent[i] = false
	}
	b.pos, b.filled, b.rejected, b.probes = 0, 0, 0, 0
}

// toHalfOpen enters half-open from any state. Callers hold b.mu.
func (b *Breaker) toHalfOpen() {
	b.reset(BreakerHalfOpen)
}
