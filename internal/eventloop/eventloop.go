// Package eventloop implements the discrete-event simulation kernel that
// drives every simulated Ursa and baseline run. All control-plane and
// data-plane logic executes as callbacks on a single virtual-time loop, so
// the simulated systems need no locking and runs are fully deterministic.
//
// Timer objects are pooled: a fired or drained timer struct is recycled for
// the next At/After/Post call, so steady-state simulation schedules
// callbacks without allocating. Handles are generation-checked values, which
// makes Cancel on an already-fired (and possibly recycled) timer a safe
// no-op.
package eventloop

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is an absolute virtual timestamp in microseconds since the start of
// the simulation.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Common durations.
const (
	Microsecond Duration = 1
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e6 }

// Seconds converts d to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e6 }

// FromSeconds converts floating-point seconds to a Duration, rounding to the
// nearest microsecond and clamping at one microsecond for positive spans so
// that nonzero work never completes instantaneously.
func FromSeconds(s float64) Duration {
	if s <= 0 {
		return 0
	}
	if math.IsInf(s, 1) {
		return Duration(math.MaxInt64)
	}
	d := Duration(math.Round(s * 1e6))
	if d <= 0 {
		d = 1
	}
	return d
}

func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// timer is the pooled scheduled-callback record. Only the loop touches it;
// user code holds generation-checked Timer handles.
type timer struct {
	at        Time
	seq       uint64
	index     int // heap index, -1 once removed
	fn        func()
	cancelled bool
	// gen increments every time the struct is recycled, invalidating all
	// previously issued handles.
	gen uint64
}

// Timer is a handle to a scheduled callback. The zero value is an inert
// handle. Cancelling a fired, already cancelled, or recycled timer is a safe
// no-op: handles carry the generation of the underlying pooled record and
// stale handles simply miss.
type Timer struct {
	t   *timer
	gen uint64
}

// Cancel prevents the timer's callback from running. It reports whether the
// timer was still pending.
func (h Timer) Cancel() bool {
	t := h.t
	if t == nil || t.gen != h.gen || t.cancelled || t.index < 0 {
		return false
	}
	t.cancelled = true
	return true
}

// defaultHeapCap pre-sizes the timer heap: typical simulated runs keep
// hundreds to a few thousand timers in flight, and growing the backing array
// during a run causes avoidable copies on the hot path.
const defaultHeapCap = 1024

// Loop is a discrete-event scheduler. The zero value is ready to use; New
// additionally pre-sizes the timer heap.
type Loop struct {
	now     Time
	seq     uint64
	pq      timerHeap
	free    []*timer // recycled timer records
	stopped bool
	// Executed counts callbacks run; useful for tests and run budgets.
	Executed uint64
}

// New returns an empty loop positioned at time zero with a pre-sized heap.
func New() *Loop {
	return &Loop{pq: make(timerHeap, 0, defaultHeapCap)}
}

// Now returns the current virtual time.
func (l *Loop) Now() Time { return l.now }

// alloc takes a timer record from the free list, or allocates one.
func (l *Loop) alloc() *timer {
	if n := len(l.free); n > 0 {
		t := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return t
	}
	return &timer{}
}

// recycle invalidates outstanding handles for t and returns it to the pool.
func (l *Loop) recycle(t *timer) {
	t.gen++
	t.fn = nil
	t.cancelled = false
	t.index = -1
	l.free = append(l.free, t)
}

// At schedules fn to run at absolute time at. Scheduling in the past is an
// error in simulation logic, so it panics to surface the bug immediately.
func (l *Loop) At(at Time, fn func()) Timer {
	if fn == nil {
		panic("eventloop: nil callback")
	}
	if at < l.now {
		panic(fmt.Sprintf("eventloop: scheduling at %v before now %v", at, l.now))
	}
	l.seq++
	t := l.alloc()
	t.at, t.seq, t.fn = at, l.seq, fn
	heap.Push(&l.pq, t)
	return Timer{t: t, gen: t.gen}
}

// After schedules fn to run d from now. Negative d is treated as zero.
func (l *Loop) After(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return l.At(l.now+Time(d), fn)
}

// Post schedules fn to run at the current time, after all callbacks already
// queued for this instant.
func (l *Loop) Post(fn func()) Timer { return l.At(l.now, fn) }

// Stop makes Run return after the current callback finishes.
func (l *Loop) Stop() { l.stopped = true }

// Pending reports the number of timers queued, including cancelled ones not
// yet drained.
func (l *Loop) Pending() int { return l.pq.Len() }

// NextAt reports the firing time of the earliest pending (non-cancelled)
// timer. ok is false when no live timer is queued. Cancelled records at the
// heap front are drained and recycled as a side effect, which is invisible to
// callers (their handles were already stale).
func (l *Loop) NextAt() (at Time, ok bool) {
	for l.pq.Len() > 0 {
		t := l.pq[0]
		if t.cancelled {
			heap.Pop(&l.pq)
			l.recycle(t)
			continue
		}
		return t.at, true
	}
	return 0, false
}

// step runs the earliest pending timer. It reports false when the queue is
// exhausted.
func (l *Loop) step(limit Time) bool {
	for l.pq.Len() > 0 {
		t := l.pq[0]
		if t.cancelled {
			heap.Pop(&l.pq)
			l.recycle(t)
			continue
		}
		if t.at > limit {
			return false
		}
		heap.Pop(&l.pq)
		if t.at < l.now {
			panic("eventloop: time went backwards")
		}
		l.now = t.at
		l.Executed++
		fn := t.fn
		// Recycle before running: the handle is already stale (the timer
		// fired), and the record becomes immediately reusable by timers
		// scheduled from within fn.
		l.recycle(t)
		fn()
		return true
	}
	return false
}

// Run executes callbacks in timestamp order until the queue empties or Stop
// is called.
func (l *Loop) Run() {
	l.stopped = false
	for !l.stopped && l.step(math.MaxInt64) {
	}
}

// RunUntil executes callbacks with timestamps <= limit, then advances the
// clock to limit if it is still behind.
func (l *Loop) RunUntil(limit Time) {
	l.stopped = false
	for !l.stopped && l.step(limit) {
	}
	if !l.stopped && l.now < limit {
		l.now = limit
	}
}

// Every schedules fn at the given period until the returned stop function is
// called. The first invocation happens one period from now.
func (l *Loop) Every(period Duration, fn func()) (stop func()) {
	if period <= 0 {
		panic("eventloop: non-positive period")
	}
	stopped := false
	var tick func()
	var timer Timer
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			timer = l.After(period, tick)
		}
	}
	timer = l.After(period, tick)
	return func() {
		stopped = true
		timer.Cancel()
	}
}

// timerHeap orders timers by (at, seq) so equal-time events run FIFO.
type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	t := x.(*timer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}
