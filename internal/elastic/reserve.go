package elastic

import "sync"

// The corrector's EWMA blend weight of the newest observation, and the clamp
// on a learned factor.
const (
	reserveAlpha     = 0.3
	minReserveFactor = 0.25
	maxReserveFactor = 4.0
)

// ReserveCorrector learns, per workload, how observed memory usage relates
// to the workload's declared estimate — the DRESS idea of correcting static
// reservations from live usage. For each finished job it folds the ratio
//
//	ratio = observed peak usage / declared estimate
//
// into a per-workload EWMA, clamped to [minReserveFactor, maxReserveFactor]
// so one pathological run can neither collapse the reservation to zero nor
// blow it past capacity. Admission multiplies the workload's MemEstimate by
// Factor(workload) at submit time, so the reservation converges to the
// observed peak: chronically over-reserving workloads converge below 1 and
// stop blocking admission slots; under-reserving ones converge above 1 and
// stop overcommitting memory.
//
// Safe for concurrent use: observations land from the control loop while
// submissions read factors from front-door goroutines.
type ReserveCorrector struct {
	mu          sync.Mutex
	factors     map[string]float64
	corrections int // observations folded into a factor (Observe's guard passed)
}

// NewReserveCorrector returns a corrector that has learned nothing.
func NewReserveCorrector() *ReserveCorrector {
	return &ReserveCorrector{factors: make(map[string]float64)}
}

// Observe folds one finished job: estimate is the admission estimate it was
// submitted with, factor the correction applied to its declared estimate to
// get there (Factor's value at submit), peak the observed memory high-water
// mark reported by the workers. The ratio is taken against estimate/factor,
// the declared estimate, so the factor converges to peak/declared whatever
// factor the job itself ran under. Jobs that estimated nothing (or reported
// no usage) teach nothing.
func (rc *ReserveCorrector) Observe(workload string, estimate, factor, peak float64) {
	if estimate <= 0 || factor <= 0 || peak <= 0 {
		return
	}
	ratio := peak * factor / estimate
	rc.mu.Lock()
	f, ok := rc.factors[workload]
	if !ok {
		f = 1
	}
	f = (1-reserveAlpha)*f + reserveAlpha*ratio
	f = min(max(f, minReserveFactor), maxReserveFactor)
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
