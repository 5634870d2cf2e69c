package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"ursa/internal/eventloop"
)

func TestDeviceSingleFlow(t *testing.T) {
	l := eventloop.New()
	d := NewDevice(l, 100, 0) // 100 B/s
	done := eventloop.Time(-1)
	d.Start(250, func() { done = l.Now() })
	l.Run()
	if want := eventloop.Time(2_500_000); done != want {
		t.Errorf("flow finished at %v, want %v", done, want)
	}
	if got := d.BytesMoved(); math.Abs(got-250) > 1 {
		t.Errorf("BytesMoved = %v, want 250", got)
	}
}

func TestDeviceFairSharing(t *testing.T) {
	l := eventloop.New()
	d := NewDevice(l, 100, 0)
	var doneA, doneB eventloop.Time
	// Two equal flows started together: each gets 50 B/s, both finish at 2s.
	d.Start(100, func() { doneA = l.Now() })
	d.Start(100, func() { doneB = l.Now() })
	l.Run()
	if want := eventloop.Time(2_000_000); doneA != want || doneB != want {
		t.Errorf("flows finished at %v, %v, want both %v", doneA, doneB, want)
	}
}

func TestDeviceLateJoinerSlowsFirstFlow(t *testing.T) {
	l := eventloop.New()
	d := NewDevice(l, 100, 0)
	var doneA, doneB eventloop.Time
	d.Start(100, func() { doneA = l.Now() })
	// After 0.5s flow A has 50 bytes left; B joins with 50 bytes. Shared at
	// 50 B/s each, both need one more second: finish at 1.5s.
	l.After(500*eventloop.Millisecond, func() {
		d.Start(50, func() { doneB = l.Now() })
	})
	l.Run()
	want := eventloop.Time(1_500_000)
	if doneA != want || doneB != want {
		t.Errorf("doneA=%v doneB=%v, want both %v", doneA, doneB, want)
	}
}

func TestDevicePerFlowCap(t *testing.T) {
	l := eventloop.New()
	d := NewDevice(l, 100, 0.5) // single flow limited to 50 B/s
	var done eventloop.Time
	d.Start(100, func() { done = l.Now() })
	l.Run()
	if want := eventloop.Time(2_000_000); done != want {
		t.Errorf("capped flow finished at %v, want %v", done, want)
	}
}

func TestDeviceZeroByteFlowCompletesImmediately(t *testing.T) {
	l := eventloop.New()
	d := NewDevice(l, 100, 0)
	done := false
	f := d.Start(0, func() { done = true })
	if !f.Done() {
		t.Error("zero-byte flow not marked done")
	}
	l.Run()
	if !done {
		t.Error("zero-byte flow callback did not run")
	}
}

func TestDeviceAbort(t *testing.T) {
	l := eventloop.New()
	d := NewDevice(l, 100, 0)
	fired := false
	f := d.Start(1000, func() { fired = true })
	var otherDone eventloop.Time
	d.Start(100, func() { otherDone = l.Now() })
	l.After(eventloop.Second, func() {
		if !d.Abort(f) {
			t.Error("Abort returned false for live flow")
		}
	})
	l.Run()
	if fired {
		t.Error("aborted flow callback ran")
	}
	// Other flow: 50 B/s for 1s (50 bytes), then full 100 B/s for the
	// remaining 50 bytes => done at 1.5s.
	if want := eventloop.Time(1_500_000); otherDone != want {
		t.Errorf("surviving flow finished at %v, want %v", otherDone, want)
	}
	if d.Abort(f) {
		t.Error("second Abort returned true")
	}
}

func TestDeviceConservesBytes(t *testing.T) {
	f := func(seed int64) bool {
		l := eventloop.New()
		d := NewDevice(l, 1000, 0)
		rng := newRand(seed)
		var total float64
		for i := 0; i < 20; i++ {
			b := float64(rng.intn(10000) + 1)
			total += b
			at := eventloop.Time(rng.intn(5000)) * eventloop.Time(eventloop.Millisecond)
			l.At(at, func() { d.Start(b, nil) })
		}
		l.Run()
		return math.Abs(d.BytesMoved()-total) < 20*0.5+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPoolAllocUse(t *testing.T) {
	l := eventloop.New()
	p := NewPool(l, "cores", 4)
	if !p.TryAlloc(3) {
		t.Fatal("TryAlloc(3) failed on empty pool")
	}
	if p.TryAlloc(2) {
		t.Fatal("TryAlloc(2) succeeded beyond capacity")
	}
	if got := p.Free(); got != 1 {
		t.Errorf("Free = %v, want 1", got)
	}
	p.Use(2)
	l.RunUntil(eventloop.Time(10 * eventloop.Second))
	p.Unuse(2)
	p.FreeAlloc(3)
	if got := p.AllocatedSeconds(); math.Abs(got-30) > 1e-6 {
		t.Errorf("AllocatedSeconds = %v, want 30", got)
	}
	if got := p.UsedSeconds(); math.Abs(got-20) > 1e-6 {
		t.Errorf("UsedSeconds = %v, want 20", got)
	}
}

func TestPoolUseBeyondAllocPanics(t *testing.T) {
	l := eventloop.New()
	p := NewPool(l, "cores", 4)
	p.MustAlloc(1)
	defer func() {
		if recover() == nil {
			t.Error("Use beyond allocation did not panic")
		}
	}()
	p.Use(2)
}

func TestGaugeIntegral(t *testing.T) {
	l := eventloop.New()
	g := NewGauge(l)
	g.Add(5)
	l.RunUntil(eventloop.Time(2 * eventloop.Second))
	g.Add(-3) // value 2 from t=2
	l.RunUntil(eventloop.Time(5 * eventloop.Second))
	if got := g.Integral(); math.Abs(got-(5*2+2*3)) > 1e-9 {
		t.Errorf("Integral = %v, want 16", got)
	}
}

func TestClusterConstruction(t *testing.T) {
	l := eventloop.New()
	c := New(l, Default20x32())
	if len(c.Machines) != 20 {
		t.Fatalf("machines = %d, want 20", len(c.Machines))
	}
	if got := c.TotalCores(); got != 640 {
		t.Errorf("TotalCores = %v, want 640", got)
	}
	s := c.Snap()
	if s.CoreUsedSeconds != 0 || s.NetBytesReceived != 0 {
		t.Errorf("fresh cluster has nonzero usage: %+v", s)
	}
}

// newRand is a tiny deterministic generator so property tests avoid pulling
// in math/rand state handling in closures.
type tinyRand struct{ s uint64 }

func newRand(seed int64) *tinyRand {
	return &tinyRand{s: uint64(seed)*2862933555777941757 + 3037000493}
}

func (r *tinyRand) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *tinyRand) intn(n int) int { return int(r.next() % uint64(n)) }
