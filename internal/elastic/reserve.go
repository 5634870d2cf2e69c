package elastic

import "sync"

// ReserveCorrector learns, per workload, how observed memory usage relates
// to admission's a-priori estimate — the DRESS idea of correcting static
// reservations from live usage. For each finished job it folds the ratio
//
//	ratio = observed peak usage / admission reservation
//
// into a per-workload EWMA, clamped to [MinFactor, MaxFactor] so one
// pathological run can neither collapse the reservation to zero nor blow it
// past capacity. Admission multiplies the workload's MemEstimate by
// Factor(workload) at submit time: chronically over-reserving workloads
// converge below 1 and stop blocking admission slots; under-reserving ones
// converge above 1 and stop overcommitting memory.
//
// Safe for concurrent use: observations land from the control loop while
// submissions read factors from front-door goroutines.
type ReserveCorrector struct {
	// Alpha is the EWMA blend weight of the newest observation.
	Alpha float64
	// MinFactor and MaxFactor clamp the learned correction.
	MinFactor, MaxFactor float64

	mu          sync.Mutex
	factors     map[string]float64
	corrections int // observations folded into a factor (Observe's guard passed)
}

// NewReserveCorrector returns a corrector with the default blend (0.3) and
// clamp [0.25, 4.0].
func NewReserveCorrector() *ReserveCorrector {
	return &ReserveCorrector{
		Alpha: 0.3, MinFactor: 0.25, MaxFactor: 4.0,
		factors: make(map[string]float64),
	}
}

// Observe folds one finished job: reserved is the admission reservation it
// held, peak the observed memory high-water mark reported by the workers.
// Jobs that reserved nothing (or reported no usage) teach nothing.
func (rc *ReserveCorrector) Observe(workload string, reserved, peak float64) {
	if reserved <= 0 || peak <= 0 {
		return
	}
	ratio := peak / reserved
	rc.mu.Lock()
	f, ok := rc.factors[workload]
	if !ok {
		f = 1
	}
	f = (1-rc.Alpha)*f + rc.Alpha*ratio
	if f < rc.MinFactor {
		f = rc.MinFactor
	}
	if f > rc.MaxFactor {
		f = rc.MaxFactor
	}
	rc.factors[workload] = f
	rc.corrections++
	rc.mu.Unlock()
}

// Factor returns the learned correction for a workload (1 when unseen).
func (rc *ReserveCorrector) Factor(workload string) float64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if f, ok := rc.factors[workload]; ok {
		return f
	}
	return 1
}

// Summary returns the corrector's stats: how many observations it folded
// in (those Observe ignores as teaching nothing are not counted), and the
// smallest and largest learned factor across workloads (1, 1 when nothing
// has been observed).
func (rc *ReserveCorrector) Summary() (corrections int, min, max float64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	min, max = 1, 1
	first := true
	for _, f := range rc.factors {
		if first {
			min, max = f, f
			first = false
			continue
		}
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
	}
	return rc.corrections, min, max
}
