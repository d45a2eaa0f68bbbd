package fleet

import (
	"context"
	"sync"
	"sync/atomic"

	"vortex/internal/dataset"
	"vortex/internal/fault"
	"vortex/internal/mapping"
	"vortex/internal/obs"
)

// ControllerConfig sets the health-management policy. The zero value
// resolves to the documented defaults.
type ControllerConfig struct {
	// Scan configures the routine health scan (fault.Scan) of each
	// maintenance pass. The scan's responsiveness ratio is the health
	// signal everything below keys on.
	Scan fault.ScanOptions
	// Repair configures the repair pipeline run when a member fails its
	// health check.
	Repair fault.Policy
	// ScanEvery is the number of controller ticks between routine scans
	// of one member (scans are staggered across members so the fleet
	// never loses more than the repair budget at once). Default 4.
	ScanEvery int
	// MaxConcurrentRepairs bounds how many members may be under
	// maintenance (scan or repair) at once, and how many maintenance
	// passes one Tick starts, even if earlier passes have already
	// finished; the router keeps serving from the rest. Default 1.
	MaxConcurrentRepairs int

	// Hysteresis thresholds. Health is the responsiveness-weighted live
	// fraction from the scan (1 = pristine); damage is the residual
	// dead-cell decode error per logical weight (0 = every casualty
	// dodged or pin-matched). A serving member enters repair when its
	// health drops below RepairBelow or its damage rises above
	// RejoinDamage; after repair it rejoins only when damage has been
	// brought back to RejoinDamage or below (and the probe, if
	// configured, passes), and is demoted to Degraded between
	// RejoinDamage and DegradeDamage. The RejoinDamage < DegradeDamage
	// gap is what stops a borderline array from flapping in and out of
	// rotation.
	RepairBelow   float64 // health trip threshold; default 0.98
	RejoinDamage  float64 // per-weight damage to rejoin; default 0.01
	DegradeDamage float64 // per-weight damage beyond which a member is degraded; default 0.05
	RetireBelow   float64 // health below which a failed repair retires the member; default 0.5

	// Probe, when non-nil, is a labeled sample set evaluated on the
	// member after a repair: the member rejoins only if its probe
	// accuracy is at least ProbeBaseline - ProbeMargin. This is the
	// end-to-end guard the damage metric approximates.
	Probe         *dataset.Set
	ProbeBaseline float64
	ProbeMargin   float64 // default 0.05
}

func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.ScanEvery <= 0 {
		c.ScanEvery = 4
	}
	if c.MaxConcurrentRepairs <= 0 {
		c.MaxConcurrentRepairs = 1
	}
	if c.RepairBelow == 0 {
		c.RepairBelow = 0.98
	}
	if c.RejoinDamage == 0 {
		c.RejoinDamage = 0.01
	}
	if c.DegradeDamage == 0 {
		c.DegradeDamage = 0.05
	}
	if c.RetireBelow == 0 {
		c.RetireBelow = 0.5
	}
	if c.ProbeMargin == 0 {
		c.ProbeMargin = 0.05
	}
	return c
}

// Controller is the fleet's health manager: on every tick it picks the
// members due for a routine scan (or whose breakers have tripped),
// takes each out of rotation, scans it, repairs it if the hysteresis
// thresholds say so, and hands it back through the breaker's half-open
// probe path — all without ever taking the last serving member offline
// for routine maintenance. Maintenance passes run on background
// goroutines bounded by MaxConcurrentRepairs, so the fleet keeps
// serving from the remaining members while one is on the bench.
//
// Its caller drives it one Tick at a time (tests, the experiment loop)
// and waits for the passes with Quiesce.
type Controller struct {
	f   *Fleet
	cfg ControllerConfig

	sem chan struct{}
	wg  sync.WaitGroup

	mu       sync.Mutex
	tick     int
	lastScan map[*Member]int

	scans   atomic.Int64
	repairs atomic.Int64
	rejoins atomic.Int64
	demoted atomic.Int64
	retired atomic.Int64
	errs    atomic.Int64

	cScans, cRepairs, cRejoins, cDemoted, cRetired, cErrors *obs.Counter
}

// NewController builds a controller for the fleet.
func NewController(f *Fleet, cfg ControllerConfig) *Controller {
	cfg = cfg.withDefaults()
	reg := obs.Default()
	return &Controller{
		f:        f,
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.MaxConcurrentRepairs),
		lastScan: make(map[*Member]int),
		cScans:   reg.Counter("fleet.controller.scans"),
		cRepairs: reg.Counter("fleet.controller.repairs"),
		cRejoins: reg.Counter("fleet.controller.rejoins"),
		cDemoted: reg.Counter("fleet.controller.demoted"),
		cRetired: reg.Counter("fleet.controller.retired"),
		cErrors:  reg.Counter("fleet.controller.errors"),
	}
}

// ControllerStats is a snapshot of the controller's lifetime counters.
type ControllerStats struct {
	Scans, Repairs, Rejoins, Demoted, Retired, Errors int64
}

// Stats snapshots the controller counters.
func (c *Controller) Stats() ControllerStats {
	return ControllerStats{
		Scans:   c.scans.Load(),
		Repairs: c.repairs.Load(),
		Rejoins: c.rejoins.Load(),
		Demoted: c.demoted.Load(),
		Retired: c.retired.Load(),
		Errors:  c.errs.Load(),
	}
}

// Tick runs one controller round: schedule a maintenance pass for every
// member that is due, up to the concurrent-repair budget. Maintenance
// itself runs on background goroutines; Quiesce waits for them.
func (c *Controller) Tick(ctx context.Context) {
	c.mu.Lock()
	c.tick++
	now := c.tick
	var due []*Member
	for i, m := range c.f.Members() {
		st := m.State()
		if st != Serving && st != Degraded {
			continue
		}
		last, ok := c.lastScan[m]
		if !ok {
			// Stagger first scans so the fleet never queues every member
			// for maintenance on the same tick.
			last = -(i % c.cfg.ScanEvery)
			c.lastScan[m] = last
		}
		forced := m.brk.State() == BreakerOpen
		if !forced && now-last < c.cfg.ScanEvery {
			continue
		}
		// Never pull the last serving member for routine maintenance; a
		// tripped breaker means it is not really serving anyway.
		if st == Serving && !forced && c.f.CountState(Serving) <= 1 {
			continue
		}
		due = append(due, m)
	}
	c.mu.Unlock()

	// A pass can end, and free its slot, before this loop reaches the
	// next member, so the semaphore alone could let one tick bench more
	// members than the budget.
	if len(due) > c.cfg.MaxConcurrentRepairs {
		due = due[:c.cfg.MaxConcurrentRepairs]
	}
	for _, m := range due {
		select {
		case c.sem <- struct{}{}:
		default:
			return // repair budget exhausted; the rest stay in rotation
		}
		c.mu.Lock()
		c.lastScan[m] = now
		c.mu.Unlock()
		prior := m.State()
		m.setState(Repairing)
		c.wg.Add(1)
		go func(m *Member, prior State) {
			defer c.wg.Done()
			defer func() { <-c.sem }()
			c.maintain(ctx, m, prior)
		}(m, prior)
	}
}

// Quiesce blocks until every in-flight maintenance pass has finished.
func (c *Controller) Quiesce() { c.wg.Wait() }

// healthScore condenses a scan map into one number in [0,1]: the live
// fraction of cells, counting suspects at half weight. It is derived
// from the scan's variation-cancelling responsiveness ratio, so a
// healthy high-variation array still scores 1.
func healthScore(m *fault.Map) float64 {
	cells := float64(2 * m.Rows * m.Cols)
	return 1 - float64(m.DeadCells())/cells - 0.5*float64(m.SuspectCells())/cells
}

// maintain runs one scan/repair cycle on a member taken out of rotation
// and decides its next state. prior is the state the member held before
// maintenance (a Degraded member that passes its checks rejoins).
func (c *Controller) maintain(ctx context.Context, m *Member, prior State) {
	log := obs.Logger()
	ctx, msp := obs.StartSpanCtx(ctx, "fleet.maintain", "member", m.id, "prior", prior.String())
	defer msp.End()
	m.mu.Lock()
	defer m.mu.Unlock()

	c.scans.Add(1)
	c.cScans.Inc()
	scan, err := fault.Scan(ctx, m.sys, c.cfg.Scan)
	if err != nil {
		// A failed scan leaves the member where it was; a dead context
		// is the shutdown path, anything else is counted.
		if ctx.Err() == nil {
			c.errs.Add(1)
			c.cErrors.Inc()
			log.Warn("fleet scan failed", "member", m.id, "err", err)
			obs.RecordEvent("fleet.scan.failed", m.id, "err", err)
		}
		m.setState(prior)
		return
	}
	health := healthScore(scan)
	m.setHealth(health)
	damage := c.normDamage(m, scan)

	if health >= c.cfg.RepairBelow && damage <= c.cfg.RejoinDamage {
		// Healthy: nothing to repair. A previously degraded member that
		// recovered (or was over-cautiously demoted) rejoins gently.
		c.rejoin(m, prior, health, damage)
		return
	}

	c.repairs.Add(1)
	c.cRepairs.Inc()
	out, err := fault.Repair(ctx, m.sys, m.weights, c.cfg.Repair)
	if err != nil {
		if ctx.Err() == nil {
			c.errs.Add(1)
			c.cErrors.Inc()
			log.Warn("fleet repair failed", "member", m.id, "err", err)
		}
		m.setState(prior)
		return
	}
	health = healthScore(out.Map)
	m.setHealth(health)
	damage = out.Damage / float64(len(m.weights.Data))

	switch {
	// Rejoin on the controller's own evidence — residual damage and the
	// probe — not the pipeline's give-up flag: a repair that "gave up"
	// with negligible pin-matched damage is a success for serving.
	case damage <= c.cfg.RejoinDamage && c.probePasses(m):
		c.rejoin(m, prior, health, damage)
	case health < c.cfg.RetireBelow && c.hasOtherCapacity(m):
		// Beyond saving, and the fleet can absorb the loss.
		m.setState(Retired)
		c.retired.Add(1)
		c.cRetired.Inc()
		log.Warn("fleet member retired", "member", m.id, "health", health, "damage", damage)
		obs.RecordEvent("fleet.retired", m.id, "health", health, "damage", damage)
	default:
		// Not good enough to rejoin, not bad enough (or not affordable)
		// to retire: serve as last resort only.
		m.setState(Degraded)
		if prior != Degraded {
			c.demoted.Add(1)
			c.cDemoted.Inc()
		}
		log.Warn("fleet member degraded", "member", m.id, "health", health,
			"damage", damage, "gaveup", out.Degraded)
		obs.RecordEvent("fleet.degraded", m.id, "health", health, "damage", damage)
	}
}

// rejoin puts a member back in rotation. A member that was out (or
// whose breaker had tripped) re-enters through the breaker's half-open
// state, so live probe reads confirm the recovery before full traffic
// returns; a member that was serving all along keeps its breaker.
func (c *Controller) rejoin(m *Member, prior State, health, damage float64) {
	if prior != Serving || m.brk.State() != BreakerClosed {
		m.brk.HalfOpen()
		c.rejoins.Add(1)
		c.cRejoins.Inc()
		obs.Logger().Info("fleet member rejoining", "member", m.id, "health", health, "damage", damage)
		obs.RecordEvent("fleet.rejoin", m.id, "health", health, "damage", damage)
	}
	m.setState(Serving)
}

// normDamage is the residual dead-cell decode error of the member's
// current mapping against a scan, per logical weight.
func (c *Controller) normDamage(m *Member, scan *fault.Map) float64 {
	if m.weights == nil {
		return 0
	}
	deadPos, deadNeg := scan.DeadMasks()
	return mapping.DeadCellDamage(m.weights, deadPos, deadNeg, m.sys.RowMap()) /
		float64(len(m.weights.Data))
}

// probePasses evaluates the configured probe set on the member (callers
// hold the member lock); true when no probe is configured.
func (c *Controller) probePasses(m *Member) bool {
	if c.cfg.Probe == nil {
		return true
	}
	acc, err := m.sys.Evaluate(c.cfg.Probe)
	if err != nil {
		c.errs.Add(1)
		c.cErrors.Inc()
		return false
	}
	return acc >= c.cfg.ProbeBaseline-c.cfg.ProbeMargin
}

// hasOtherCapacity reports whether some member other than m can still
// answer reads — the guard that keeps the fleet from retiring its last
// array.
func (c *Controller) hasOtherCapacity(m *Member) bool {
	for _, o := range c.f.Members() {
		if o == m {
			continue
		}
		switch o.State() {
		case Serving, Degraded, Repairing:
			return true
		}
	}
	return false
}
