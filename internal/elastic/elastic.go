// Package elastic is the cluster-elasticity subsystem: policy-driven
// autoscaling (add workers when admission backs up, drain idle ones when
// reservations slack off) through one controller that the simulator and the
// remote master both run, and the DRESS-style reservation corrector that
// feeds observed per-job memory usage back into admission's estimate. The
// mechanisms — graceful drain, mid-run join, estimate correction — live in
// the core and remote layers; this package owns the decisions.
package elastic

import (
	"sync/atomic"

	"ursa/internal/core"
)

// Signals is the autoscaler's sampled view of the cluster, assembled on the
// control loop each policy tick: Sample's half from the scheduler, the
// membership from the host.
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
	// live cores (0 with none).
	ReservedFrac float64
	Utilization  float64
}

// UtilizationPolicy is the scaling policy: scale up one step
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

// Target returns the live worker count to aim for under the signals s.
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

// Sample reads the scheduler's half of the signals: the queued and admitted
// job counts, admission's own pause, the reserved fraction of live memory,
// and core utilization over the workers placement can use. Membership (Live,
// Draining, Joined) is the host's to fill in. Loop-owned.
func Sample(sys *core.System) Signals {
	sched := sys.Sched
	s := Signals{
		Queued:   sched.QueuedCount(),
		Admitted: sched.AdmittedCount(),
		Paused:   sched.AdmissionPaused(),
	}
	if cap := sched.LiveCapacity(); cap > 0 {
		s.ReservedFrac = sched.ReservedMem() / cap
	}
	var capCores, freeCores float64
	for _, w := range sys.Workers {
		if w.Failed() || w.Draining() {
			continue
		}
		capCores += w.Machine.Cores.Capacity()
		freeCores += w.Machine.Cores.Free()
	}
	if capCores > 0 {
		s.Utilization = 1 - freeCores/capCores
	}
	return s
}

// Controller turns policy targets into actions through host callbacks; the
// simulator and the remote master both run it. The host calls Tick on its
// control loop at the autoscale interval. A scale-up calls Start once per
// worker to add, a scale-down calls Drain, which picks an idle worker and
// starts a graceful drain (false when no worker can drain this tick).
type Controller struct {
	Policy *UtilizationPolicy
	// Start begins adding one worker that will join the cluster. It runs on
	// the control loop and must not block: a host whose provisioning is
	// slow runs it elsewhere and reports a failure through Failed.
	Start func()
	// Drain begins a graceful drain of one scale-down candidate.
	Drain func() bool
	// Logf receives decision logs; nil disables logging.
	Logf func(format string, args ...any)

	// launched counts Starts issued and failed those Failed reported;
	// launched−failed−Signals.Joined are joins pending, not started again.
	launched int
	failed   atomic.Int64
	// ups and downs count scale-up and scale-down decisions (Decisions).
	ups, downs atomic.Int64
}

// Failed reports that a Start did not produce a worker, so the next tick
// under the same pressure starts another. Safe from any goroutine.
func (c *Controller) Failed(err error) {
	c.failed.Add(1)
	c.logf("elastic: provision failed: %v", err)
}

// Decisions returns how many scale-up and scale-down decisions the
// controller has taken. Safe from any goroutine.
func (c *Controller) Decisions() (up, down int) {
	return int(c.ups.Load()), int(c.downs.Load())
}

// Tick samples one policy decision and acts on it. Loop-owned.
func (c *Controller) Tick(s Signals) {
	target := c.Policy.Target(s)
	pending := c.launched - int(c.failed.Load()) - s.Joined
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
			c.Start()
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
