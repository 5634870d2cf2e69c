package elastic

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestUtilizationPolicyScalesUpUnderPressure(t *testing.T) {
	p := NewUtilizationPolicy(2, 5)
	s := Signals{Live: 2, Queued: 3, ReservedFrac: 0.9}
	if got := p.Target(s); got != 3 {
		t.Errorf("Target under pressure = %d, want 3", got)
	}
	// Paused admission alone is pressure, even with an empty queue.
	if got := p.Target(Signals{Live: 2, Paused: true}); got != 3 {
		t.Errorf("Target when paused = %d, want 3", got)
	}
	// Never beyond Max.
	if got := p.Target(Signals{Live: 5, Queued: 10}); got != 5 {
		t.Errorf("Target at Max = %d, want 5", got)
	}
}

func TestUtilizationPolicyScaleDownNeedsHysteresis(t *testing.T) {
	p := NewUtilizationPolicy(2, 5)
	idle := Signals{Live: 4, ReservedFrac: 0.1}
	for i := 0; i < p.HysteresisTicks-1; i++ {
		if got := p.Target(idle); got != 4 {
			t.Fatalf("tick %d: Target = %d, want hold at 4", i, got)
		}
	}
	if got := p.Target(idle); got != 3 {
		t.Errorf("Target after hysteresis = %d, want 3", got)
	}
	// A pressure tick resets the countdown.
	p.Target(idle)
	p.Target(Signals{Live: 4, Queued: 1})
	for i := 0; i < p.HysteresisTicks-1; i++ {
		if got := p.Target(idle); got != 4 {
			t.Fatalf("post-reset tick %d: Target = %d, want hold", i, got)
		}
	}
	// Never below Min.
	p2 := NewUtilizationPolicy(2, 5)
	low := Signals{Live: 2}
	for i := 0; i < 10; i++ {
		if got := p2.Target(low); got != 2 {
			t.Fatalf("Target below Min = %d, want 2", got)
		}
	}
}

func TestControllerProvisionsAndTracksPendingJoins(t *testing.T) {
	started := 0
	c := &Controller{
		Policy: NewUtilizationPolicy(1, 4),
		Start:  func() { started++ },
	}
	s := Signals{Live: 1, Queued: 5}
	c.Tick(s)
	// Same pressure, join not yet arrived: no second start.
	c.Tick(s)
	if started != 1 {
		t.Fatalf("started %d workers while a join is pending, want 1", started)
	}
	// The join landed: pressure starts another.
	c.Tick(Signals{Live: 2, Joined: 1, Queued: 5})
	if started != 2 {
		t.Fatalf("started %d workers after the join, want 2", started)
	}
	if up, down := c.Decisions(); up != 2 || down != 0 {
		t.Fatalf("Decisions() = %d up, %d down; want 2, 0", up, down)
	}
}

// TestControllerRetriesFailedProvision: a start reported Failed is not a join
// in flight, so the next tick under the same pressure starts again. The
// failure lands from another goroutine, as a host's asynchronous spawn
// reports it.
func TestControllerRetriesFailedProvision(t *testing.T) {
	started := 0
	var logged []string
	c := &Controller{Policy: NewUtilizationPolicy(1, 3)}
	c.Logf = func(format string, _ ...any) { logged = append(logged, format) }
	c.Start = func() {
		started++
		if started == 1 {
			done := make(chan struct{})
			go func() { c.Failed(errors.New("spawn failed")); close(done) }()
			<-done
		}
	}
	s := Signals{Live: 1, Queued: 5}
	c.Tick(s)
	c.Tick(s)
	if started != 2 {
		t.Fatalf("started %d workers, want 2: the failed start still counts as a pending join", started)
	}
	if up, _ := c.Decisions(); up != 2 {
		t.Fatalf("%d scale-up decisions, want 2", up)
	}
	if !slices.ContainsFunc(logged, func(f string) bool { return strings.HasPrefix(f, "elastic: provision failed") }) {
		t.Fatalf("no provision-failed log in %q", logged)
	}
}

func TestControllerDrainsOnePerTick(t *testing.T) {
	drains := 0
	p := NewUtilizationPolicy(1, 5)
	p.HysteresisTicks = 1
	c := &Controller{
		Policy: p,
		Start:  func() { t.Fatal("started a worker on an idle tick") },
		Drain:  func() bool { drains++; return true },
	}
	idle := Signals{Live: 4}
	c.Tick(idle)
	if drains != 1 {
		t.Fatalf("drains = %d after one idle tick, want 1", drains)
	}
	if up, down := c.Decisions(); up != 0 || down != 1 {
		t.Fatalf("Decisions() = %d up, %d down after one drain; want 0, 1", up, down)
	}
	// Drain still in progress: no second drain even under idle pressure.
	c.Tick(Signals{Live: 3, Draining: 1})
	if drains != 1 {
		t.Fatalf("drains = %d with a drain in flight, want 1", drains)
	}
}

func TestReserveCorrectorConverges(t *testing.T) {
	rc := NewReserveCorrector()
	if got := rc.Factor("wc"); got != 1 {
		t.Fatalf("unseen factor = %v, want 1", got)
	}
	// A workload consistently using half its estimate converges to 0.5.
	for i := 0; i < 50; i++ {
		rc.Observe("wc", 2e9, 1, 1e9)
	}
	if got := rc.Factor("wc"); math.Abs(got-0.5) > 0.01 {
		t.Errorf("over-reserver factor = %v, want ≈0.5", got)
	}
	// An under-reserver converges above 1, clamped at maxReserveFactor.
	for i := 0; i < 100; i++ {
		rc.Observe("hog", 1e9, 1, 10e9)
	}
	if got := rc.Factor("hog"); got != maxReserveFactor {
		t.Errorf("under-reserver factor = %v, want clamp %v", got, maxReserveFactor)
	}
	_, min, max := rc.Summary()
	if min >= 1 || max != maxReserveFactor {
		t.Errorf("Range() = (%v, %v)", min, max)
	}
	// Degenerate observations teach nothing.
	rc.Observe("zero", 0, 1, 5)
	rc.Observe("zero", 5, 1, 0)
	rc.Observe("zero", 5, 0, 5)
	if got := rc.Factor("zero"); got != 1 {
		t.Errorf("degenerate observations moved factor to %v", got)
	}
	if got, _, _ := rc.Summary(); got != 150 {
		t.Errorf("corrections = %d, want 150 (the degenerate ones are not corrections)", got)
	}
}

// TestReserveCorrectorClosedLoop runs the corrector the way the master does:
// each job is submitted with its declared estimate times the factor learned
// so far, and peaks at a fixed multiple of the declared estimate. The
// reservation must converge to the peak, so the factor to peak/declared: 0.5
// for a 2× over-reserver and 3 for a 3× under-reserver, not the square roots
// (0.707, 1.732) that folding the peak against the corrected estimate reaches.
func TestReserveCorrectorClosedLoop(t *testing.T) {
	const declared = 1e9
	for _, usage := range []float64{0.5, 3} {
		rc := NewReserveCorrector()
		for i := 0; i < 60; i++ {
			f := rc.Factor("w")
			rc.Observe("w", declared*f, f, usage*declared)
		}
		if got := rc.Factor("w"); math.Abs(got-usage) > 1e-6 {
			t.Errorf("peak = %v × declared: factor %.4f, want %v", usage, got, usage)
		}
	}
}
