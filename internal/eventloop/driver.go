// Driver abstraction: one scheduling core, two clocks.
//
// Every control-plane component in this repository (scheduler, workers, job
// managers) is written against *Loop — a single-threaded callback loop with
// an abstract clock. A Driver decides what that clock means:
//
//   - SimDriver leaves the loop in pure virtual time: Run drains the timer
//     heap as fast as the host can execute callbacks. This is the
//     deterministic discrete-event simulation mode used by every experiment
//     and the equivalence suites.
//   - LiveDriver binds the loop's clock to the wall: timers fire when their
//     timestamp is reached in real time, and completions produced by real
//     executor goroutines enter the loop through a thread-safe inbox
//     (Send). All callbacks still execute on the single driver goroutine,
//     so the control plane needs no locking in either mode — the same
//     property the simulator relies on, now preserved under real execution.
//
// The determinism boundary is exactly the inbox: a simulated run admits no
// external events, so it is bit-reproducible; a live run interleaves inbox
// arrivals by wall-clock order, so it is reproducible at the level of
// results, not event timestamps.
package eventloop

import (
	"context"
	"sync"
	"time"
)

// Driver owns a Loop and decides how its clock advances.
type Driver interface {
	// Loop returns the event loop the driver advances. All control-plane
	// state must only be touched from callbacks running on this loop.
	Loop() *Loop
	// Send schedules fn to run on the loop goroutine. For SimDriver it is
	// Post and must be called from loop callbacks; for LiveDriver it is
	// safe from any goroutine.
	Send(fn func())
	// Stop makes Run return after the currently executing callback.
	Stop()
}

// SimDriver is the trivial driver for the deterministic simulation: Run
// drains the loop in virtual time with no pacing and no external inputs.
type SimDriver struct {
	L *Loop
}

// NewSimDriver wraps an existing loop (or a fresh one when nil).
func NewSimDriver(l *Loop) *SimDriver {
	if l == nil {
		l = New()
	}
	return &SimDriver{L: l}
}

// Loop returns the wrapped loop.
func (d *SimDriver) Loop() *Loop { return d.L }

// Send posts fn at the current virtual instant. Simulation has no external
// event sources, so Send is only meaningful from loop callbacks.
func (d *SimDriver) Send(fn func()) { d.L.Post(fn) }

// Run drains the loop to quiescence in virtual time.
func (d *SimDriver) Run() { d.L.Run() }

// Stop stops the underlying loop.
func (d *SimDriver) Stop() { d.L.Stop() }

// LiveDriver paces a Loop against the wall clock. Virtual time is
// microseconds since Run started, so the same Duration constants and the
// same At/After/Every control-plane code work unchanged; a timer scheduled
// for virtual time T fires once the wall clock reaches T.
//
// External events (monotask completions measured by executor goroutines)
// enter through Send: the closure is queued thread-safely and executed on
// the driver goroutine with the loop clock first advanced to "now", so from
// the control plane's perspective a live completion is indistinguishable
// from a timer that fired at its arrival instant.
//
// One pass of Run's loop — drain the inbox, run the due timers — is a batch.
// SetBatchEnd installs a hook that runs at the end of every batch that
// executed at least one callback: the place to react once to everything the
// batch changed, however many events it carried. SimDriver has no inbox and
// therefore no batch boundary and no hook.
type LiveDriver struct {
	loop     *Loop
	start    time.Time
	batchEnd func()

	mu     sync.Mutex
	queue  []func()
	done   bool // Run returned; late Sends are discarded
	notify chan struct{}
	quitC  chan struct{}
	quit   sync.Once
}

// NewLiveDriver returns a live driver over a fresh loop positioned at
// virtual time zero.
func NewLiveDriver() *LiveDriver {
	return &LiveDriver{
		loop:   New(),
		notify: make(chan struct{}, 1),
		quitC:  make(chan struct{}),
	}
}

// Loop returns the driven loop. Use it to schedule control-plane callbacks
// (from the loop goroutine) before or during Run.
func (d *LiveDriver) Loop() *Loop { return d.loop }

// Now returns the loop's current virtual time (microseconds since Run
// started; zero before Run).
func (d *LiveDriver) Now() Time { return d.loop.Now() }

// SetBatchEnd installs fn as the end-of-batch hook: Run calls it on the
// driver goroutine once per batch, after the inbox events and the due timers
// of that batch have run, and only if at least one of them did. It is not
// called once Stop has been requested. Call before Run.
func (d *LiveDriver) SetBatchEnd(fn func()) { d.batchEnd = fn }

// Send queues fn for execution on the driver goroutine. Safe from any
// goroutine; never blocks. After Run has returned, sends are discarded —
// straggler executor goroutines finishing after shutdown must not deadlock.
func (d *LiveDriver) Send(fn func()) {
	d.mu.Lock()
	if d.done {
		d.mu.Unlock()
		return
	}
	d.queue = append(d.queue, fn)
	d.mu.Unlock()
	select {
	case d.notify <- struct{}{}:
	default:
	}
}

// Pending returns how many sent callbacks wait in the inbox for the next
// batch. Safe from any goroutine.
func (d *LiveDriver) Pending() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.queue)
}

// Stop makes Run return once the batch of due callbacks currently executing
// (if any) finishes. Safe from loop callbacks and from other goroutines; it
// deliberately does not touch the loop's own stop flag, which is not
// thread-safe — the driver goroutine checks the quit channel between
// callback batches instead.
func (d *LiveDriver) Stop() {
	d.quit.Do(func() { close(d.quitC) })
}

// wallNow maps the wall clock onto loop virtual time.
func (d *LiveDriver) wallNow() Time {
	return Time(time.Since(d.start) / time.Microsecond)
}

// drain takes the queued external events.
func (d *LiveDriver) drain() []func() {
	d.mu.Lock()
	q := d.queue
	d.queue = nil
	d.mu.Unlock()
	return q
}

// stopRequested reports whether Stop has been called.
func (d *LiveDriver) stopRequested() bool {
	select {
	case <-d.quitC:
		return true
	default:
		return false
	}
}

// Run executes the control loop against the wall clock until Stop is called
// or ctx is cancelled. It returns ctx.Err() on cancellation, nil otherwise.
// Run must be called at most once.
func (d *LiveDriver) Run(ctx context.Context) error {
	d.start = time.Now()
	defer func() {
		d.mu.Lock()
		d.done = true
		d.queue = nil
		d.mu.Unlock()
	}()
	wake := time.NewTimer(0)
	defer wake.Stop()
	if !wake.Stop() {
		<-wake.C
	}
	for {
		// 1. Run external events that have arrived, each at the current
		// wall instant.
		batch := d.drain()
		timersBefore := d.loop.Executed
		for _, fn := range batch {
			d.loop.RunUntil(d.wallNow())
			fn()
			if d.stopRequested() {
				return nil
			}
		}
		// 2. Run all due timers and advance the clock to "now".
		d.loop.RunUntil(d.wallNow())
		if d.stopRequested() {
			return nil
		}
		// 3. End of batch: one hook call for everything the batch changed.
		// A wake-up that found nothing to run (a notify token left over
		// from an event an earlier drain already took) is not a batch.
		if d.batchEnd != nil && (len(batch) > 0 || d.loop.Executed != timersBefore) {
			d.batchEnd()
			if d.stopRequested() {
				return nil
			}
		}
		// 4. Sleep until the next timer is due, an external event arrives,
		// or we are told to stop.
		var timerC <-chan time.Time
		if next, ok := d.loop.NextAt(); ok {
			delay := time.Duration(next-d.loop.Now()) * time.Microsecond
			if delay < 0 {
				delay = 0
			}
			wake.Reset(delay)
			timerC = wake.C
		}
		select {
		case <-timerC:
			continue
		case <-d.notify:
		case <-d.quitC:
		case <-ctx.Done():
			d.Stop()
			return ctx.Err()
		}
		if timerC != nil && !wake.Stop() {
			// Drain a concurrently fired timer so Reset starts clean.
			select {
			case <-wake.C:
			default:
			}
		}
		if d.stopRequested() {
			return nil
		}
	}
}
