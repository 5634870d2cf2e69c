// Package elastic is the cluster-elasticity subsystem: policy-driven
// autoscaling (add workers when admission backs up, drain idle ones when
// reservations slack off), the provisioning seam that actually starts
// workers, and the DRESS-style reservation corrector that feeds observed
// per-job memory usage back into admission's estimate. The mechanisms —
// graceful drain, mid-run join, estimate correction — live in the core and
// remote layers; this package owns the decisions.
package elastic

import "sync/atomic"

// Signals is the autoscaler's sampled view of the scheduler, assembled on
// the control loop each policy tick.
type Signals struct {
	// Live counts workers able to take new work; Draining counts drains in
	// progress. Joined is the cumulative mid-run join count — the
	// controller uses it to recognize when a provisioned worker has
	// actually arrived, so it does not over-provision while joins are in
	// flight.
	Live     int
	Draining int
	Joined   int
	// Queued and Admitted are the scheduler's job counts; Paused reports
	// admission paused for lack of live capacity.
	Queued   int
	Admitted int
	Paused   bool
	// ReservedFrac is admitted reservation over live capacity (0..1): the
	// pending-reservation pressure signal. Utilization is busy cores over
	// live cores, when the host can sample it (0 otherwise).
	ReservedFrac float64
	Utilization  float64
}

// Policy decides the target live worker count from the sampled signals.
// Implementations may keep state across ticks (hysteresis); Target is
// always called from the control loop, never concurrently.
type Policy interface {
	Target(s Signals) int
}

// UtilizationPolicy is the default scaling policy: scale up one step
// whenever admission is under pressure (paused, jobs queued, or reservation
// above the high watermark); scale down one worker only after the cluster
// has idled below the low watermark for HysteresisTicks consecutive ticks,
// so a diurnal trough must persist before capacity is released. Bounds are
// always respected: Min ≤ target ≤ Max.
type UtilizationPolicy struct {
	Min, Max int
	// HighWater and LowWater bound ReservedFrac: above high → grow, below
	// low (with nothing queued) → candidate to shrink.
	HighWater float64
	LowWater  float64
	// UtilHigh, when positive, makes sustained core saturation a scale-up
	// trigger too: memory reservations can sit far below capacity while
	// every live core is busy (CPU-bound analytics), and admission keeps the
	// queue empty, so neither ReservedFrac nor Queued would ever fire.
	UtilHigh float64
	// StepUp is the number of workers added per scale-up decision.
	StepUp int
	// HysteresisTicks is how many consecutive low-pressure ticks must pass
	// before one worker drains.
	HysteresisTicks int

	lowTicks int
}

// NewUtilizationPolicy returns the default policy for the [min, max] size
// band: 85%/30% reservation watermarks, scale-up on 90% core saturation,
// one worker per step, three-tick scale-down hysteresis.
func NewUtilizationPolicy(min, max int) *UtilizationPolicy {
	return &UtilizationPolicy{
		Min: min, Max: max,
		HighWater: 0.85, LowWater: 0.30, UtilHigh: 0.90,
		StepUp: 1, HysteresisTicks: 3,
	}
}

// Target implements Policy.
func (p *UtilizationPolicy) Target(s Signals) int {
	target := s.Live
	pressure := s.Paused || s.Queued > 0 || s.ReservedFrac > p.HighWater ||
		(p.UtilHigh > 0 && s.Utilization > p.UtilHigh)
	idle := s.Queued == 0 && s.ReservedFrac < p.LowWater && s.Utilization < p.LowWater
	switch {
	case pressure:
		p.lowTicks = 0
		step := p.StepUp
		if step <= 0 {
			step = 1
		}
		target = s.Live + step
	case idle:
		if p.lowTicks < p.HysteresisTicks {
			p.lowTicks++
		}
		if p.lowTicks >= p.HysteresisTicks {
			target = s.Live - 1
			if s.Admitted > 0 {
				// Work is still running: re-earn the hysteresis window
				// before releasing the next worker.
				p.lowTicks = 0
			}
			// Deep idle — nothing admitted or queued — keeps the earned
			// window, so the cluster steps down to Min one worker per tick
			// instead of one per window.
		}
	default:
		p.lowTicks = 0
	}
	if target > p.Max {
		target = p.Max
	}
	if target < p.Min {
		target = p.Min
	}
	return target
}

// Provisioner starts one new worker that will register with the master.
// StartWorker may block on process spawn or dialing and is therefore never
// called on the control loop.
type Provisioner interface {
	StartWorker() error
}

// ProvisionerFunc adapts a function to the Provisioner interface.
type ProvisionerFunc func() error

// StartWorker implements Provisioner.
func (f ProvisionerFunc) StartWorker() error { return f() }

// Controller turns policy targets into actions through host callbacks. The
// host (the remote master) calls Tick on its control loop at the autoscale
// interval; scale-ups run the provisioner on fresh goroutines, scale-downs
// invoke the host's Drain callback, which picks an idle worker and starts a
// graceful drain (returning false when no worker can drain this tick).
type Controller struct {
	Policy Policy
	Prov   Provisioner
	// Drain begins a graceful drain of one scale-down candidate.
	Drain func() bool
	// Logf receives decision logs; nil disables logging.
	Logf func(format string, args ...any)

	// launched counts provisioner starts issued, matched against
	// Signals.Joined to avoid double-provisioning while joins are pending.
	launched int
	// ups and downs count scale-up and scale-down decisions (Decisions).
	ups, downs atomic.Int64
}

// Decisions returns how many scale-up and scale-down decisions the
// controller has taken. Safe from any goroutine.
func (c *Controller) Decisions() (up, down int) {
	return int(c.ups.Load()), int(c.downs.Load())
}

// Tick samples one policy decision and acts on it. Loop-owned.
func (c *Controller) Tick(s Signals) {
	if c.Policy == nil {
		return
	}
	target := c.Policy.Target(s)
	pending := c.launched - s.Joined
	if pending < 0 {
		pending = 0
	}
	switch {
	case target > s.Live+pending:
		n := target - (s.Live + pending)
		c.launched += n
		c.logf("elastic: scale up %d → %d (+%d, queued=%d reserved=%.0f%% paused=%v)",
			s.Live, target, n, s.Queued, 100*s.ReservedFrac, s.Paused)
		c.ups.Add(1)
		for i := 0; i < n; i++ {
			go func() {
				if err := c.Prov.StartWorker(); err != nil {
					c.logf("elastic: provision failed: %v", err)
				}
			}()
		}
	case target < s.Live && s.Draining == 0:
		// One drain at a time: the next tick sees the shrunken Live count
		// and re-decides, so a burst of low ticks cannot stampede the
		// cluster to Min instantly.
		if c.Drain != nil && c.Drain() {
			c.logf("elastic: scale down %d → %d (reserved=%.0f%% util=%.0f%%)",
				s.Live, s.Live-1, 100*s.ReservedFrac, 100*s.Utilization)
			c.downs.Add(1)
		}
	}
}

func (c *Controller) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}
