package elastic

import (
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
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
	var mu sync.Mutex
	started := 0
	wait := make(chan struct{})
	c := &Controller{
		Policy: NewUtilizationPolicy(1, 4),
		Prov: ProvisionerFunc(func() error {
			mu.Lock()
			started++
			mu.Unlock()
			wait <- struct{}{}
			return nil
		}),
	}
	s := Signals{Live: 1, Queued: 5}
	c.Tick(s)
	<-wait
	// Same pressure, join not yet arrived: no second provision.
	c.Tick(s)
	mu.Lock()
	if started != 1 {
		mu.Unlock()
		t.Fatalf("provisioned %d workers while join pending, want 1", started)
	}
	mu.Unlock()
	// The join landed: pressure provisions again.
	c.Tick(Signals{Live: 2, Joined: 1, Queued: 5})
	<-wait
	mu.Lock()
	defer mu.Unlock()
	if started != 2 {
		t.Fatalf("provisioned %d workers after join, want 2", started)
	}
	if up, down := c.Decisions(); up != 2 || down != 0 {
		t.Fatalf("Decisions() = %d up, %d down; want 2, 0", up, down)
	}
}

// TestControllerRetriesFailedProvision: a provision that failed is not a join
// in flight, so the next tick under the same pressure provisions again.
func TestControllerRetriesFailedProvision(t *testing.T) {
	var calls atomic.Int32
	failed := make(chan struct{}, 1)
	started := make(chan struct{}, 1)
	c := &Controller{
		Policy: NewUtilizationPolicy(1, 3),
		Prov: ProvisionerFunc(func() error {
			if calls.Add(1) == 1 {
				return errors.New("spawn failed")
			}
			started <- struct{}{}
			return nil
		}),
		Logf: func(format string, _ ...any) {
			if strings.HasPrefix(format, "elastic: provision failed") {
				failed <- struct{}{}
			}
		},
	}
	s := Signals{Live: 1, Queued: 5}
	c.Tick(s)
	<-failed
	c.Tick(s)
	if up, _ := c.Decisions(); up != 2 {
		t.Fatalf("%d scale-up decisions, want 2: the failed provision still counts as a pending join", up)
	}
	<-started
	if n := calls.Load(); n != 2 {
		t.Fatalf("provisioner called %d times, want 2", n)
	}
}

func TestControllerDrainsOnePerTick(t *testing.T) {
	drains := 0
	p := NewUtilizationPolicy(1, 5)
	p.HysteresisTicks = 1
	c := &Controller{
		Policy: p,
		Prov:   ProvisionerFunc(func() error { return nil }),
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
	// A workload consistently using half its reservation converges to 0.5.
	for i := 0; i < 50; i++ {
		rc.Observe("wc", 2e9, 1e9)
	}
	if got := rc.Factor("wc"); math.Abs(got-0.5) > 0.01 {
		t.Errorf("over-reserver factor = %v, want ≈0.5", got)
	}
	// An under-reserver converges above 1, clamped at MaxFactor.
	for i := 0; i < 100; i++ {
		rc.Observe("hog", 1e9, 10e9)
	}
	if got := rc.Factor("hog"); got != rc.MaxFactor {
		t.Errorf("under-reserver factor = %v, want clamp %v", got, rc.MaxFactor)
	}
	_, min, max := rc.Summary()
	if min >= 1 || max != rc.MaxFactor {
		t.Errorf("Range() = (%v, %v)", min, max)
	}
	// Degenerate observations teach nothing.
	rc.Observe("zero", 0, 5)
	rc.Observe("zero", 5, 0)
	if got := rc.Factor("zero"); got != 1 {
		t.Errorf("degenerate observations moved factor to %v", got)
	}
	if got, _, _ := rc.Summary(); got != 150 {
		t.Errorf("corrections = %d, want 150 (the degenerate pair is not a correction)", got)
	}
}
