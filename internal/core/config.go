// Package core implements the paper's primary contribution: the Ursa
// framework integrating a centralized scheduler (job admission and
// stage-aware task placement, §4.2.2), per-job job managers (resource
// request and usage estimation, §4.2.1), and per-worker distributed
// monotask queues with ordering and concurrency control (§4.2.3).
package core

import (
	"fmt"
	"strings"

	"ursa/internal/eventloop"
	"ursa/internal/resource"
)

// Policy selects the job-ordering policy (§4.2.2 "Job ordering").
type Policy int

const (
	// EJF (Earliest Job First) prioritizes jobs submitted earlier, the
	// fine-grained analogue of YARN's FIFO.
	EJF Policy = iota
	// SRJF (Smallest Remaining Job First) prioritizes jobs with the
	// smallest remaining per-resource work, reducing average JCT.
	SRJF
)

func (p Policy) String() string {
	if p == SRJF {
		return "SRJF"
	}
	return "EJF"
}

// ParsePolicy is the inverse of Policy.String for command-line flags: "ejf"
// or "srjf" in either case. Anything else is an error naming the accepted
// spellings, so a typo cannot silently run the default policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "ejf":
		return EJF, nil
	case "srjf":
		return SRJF, nil
	}
	return EJF, fmt.Errorf("unknown policy %q (want ejf or srjf)", s)
}

// Config holds Ursa's tunables. Zero values are replaced by defaults in
// withDefaults; the flags defaulting to true use inverted names so the zero
// Config matches the paper's configuration.
type Config struct {
	// Policy is the job ordering policy.
	Policy Policy
	// SchedInterval is the period of the placement tick. In simulation it is
	// the paper's task-placement batching interval (§4.2.2): every ready
	// task waits for the next tick. On a live driver a short job's tasks are
	// placed at the end of the control-loop batch that made them placeable
	// (Scheduler.PlaceIfChanged), and the tick places longer jobs and is the
	// fallback for what time alone changes.
	SchedInterval eventloop.Duration
	// EPT is the expected processing time horizon, "slightly larger than
	// the scheduling interval" to cover communication delay.
	EPT eventloop.Duration
	// NetConcurrency is the per-worker concurrent network monotask limit
	// (1-4 per §4.2.3).
	NetConcurrency int
	// SmallMonotaskBytes is the latency-sensitive bypass threshold:
	// monotasks smaller than this run without queueing (§4.2.3).
	SmallMonotaskBytes float64
	// DispatchOverhead models per-monotask control latency (thread launch,
	// request messages). It is charged to every monotask execution.
	DispatchOverhead eventloop.Duration
	// OrderingWeight is W in the placement score term W·T that enforces
	// job ordering during task placement.
	OrderingWeight float64
	// DefaultM2I is the default memory-to-input ratio m2i (§4.2.1).
	DefaultM2I float64
	// RateWindow is the processing-rate observation period at workers.
	RateWindow eventloop.Duration

	// InterferencePenalty scales each resource term of the placement score
	// F(t,w) by the worker's observed-vs-nominal rate deviation, normalized
	// against the best-deviating live worker (see PlaceContext.prepare):
	// a machine whose measured rates run below its declared profile —
	// co-located interference, a failing disk, a saturated NIC — scores
	// proportionally lower, steering work toward machines that deliver
	// their nominal rates. Off by default: placement is bit-identical to
	// the penalty-free score (guarded by the equivalence suites).
	InterferencePenalty bool

	// DisableStageAware switches Algorithm 1 to greedy per-task placement
	// (the Figure 7 ablation).
	DisableStageAware bool
	// IgnoreNetworkDemand drops the network term from F(t,w) (§5.2).
	IgnoreNetworkDemand bool
	// DisableJobOrdering removes job priority from placement (Table 6 JO).
	DisableJobOrdering bool
	// DisableMonotaskOrdering makes worker queues FIFO (Table 6 MO).
	DisableMonotaskOrdering bool

	// Placer optionally replaces Algorithm 1 (used for the Tetris and
	// Capacity comparisons in §5.1.2). Nil selects Algorithm 1.
	Placer Placer

	// TenantWeights sets per-tenant fair-share weights for admission: the
	// scheduler feeds tryAdmit from the queue of the tenant with the lowest
	// reserved/weight deficit. Tenants not listed here — including the empty
	// default tenant — weigh 1. Nil keeps every tenant at weight 1.
	TenantWeights map[string]float64
}

// withDefaults fills unset fields with the paper's configuration.
func (c Config) withDefaults() Config {
	if c.SchedInterval <= 0 {
		c.SchedInterval = 100 * eventloop.Millisecond
	}
	if c.EPT <= 0 {
		// Larger than the scheduling interval (§4.2.2) with margin for the
		// dispatch path: enough queued work survives between batches to
		// keep every resource's pipeline full (see the EPT ablation).
		c.EPT = 3 * c.SchedInterval
	}
	if c.NetConcurrency <= 0 {
		c.NetConcurrency = 4
	}
	if c.SmallMonotaskBytes <= 0 {
		c.SmallMonotaskBytes = float64(16 * resource.KB)
	}
	if c.DispatchOverhead <= 0 {
		c.DispatchOverhead = 2 * eventloop.Millisecond
	}
	if c.OrderingWeight <= 0 {
		c.OrderingWeight = 0.05
	}
	if c.DefaultM2I <= 0 {
		c.DefaultM2I = 1.5
	}
	if c.RateWindow <= 0 {
		c.RateWindow = 5 * eventloop.Second
	}
	return c
}
