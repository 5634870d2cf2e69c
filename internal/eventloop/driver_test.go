package eventloop

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestSimDriverIsPlainLoop: SimDriver must be a zero-cost veneer — same loop,
// same Post semantics, same Run drain.
func TestSimDriverIsPlainLoop(t *testing.T) {
	d := NewSimDriver(nil)
	var order []int
	d.Loop().After(2*Millisecond, func() { order = append(order, 2) })
	d.Loop().After(1*Millisecond, func() {
		order = append(order, 1)
		d.Send(func() { order = append(order, 10) }) // Post at current instant
	})
	d.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 10 || order[2] != 2 {
		t.Fatalf("order = %v, want [1 10 2]", order)
	}
	if d.Loop().Now() != Time(2*Millisecond) {
		t.Fatalf("Now = %v, want 2ms", d.Loop().Now())
	}
}

// TestLiveDriverTimersFireInOrderAgainstWall: timers fire in timestamp order
// and the wall clock really paces them.
func TestLiveDriverTimersFireInOrderAgainstWall(t *testing.T) {
	d := NewLiveDriver()
	var order []int
	d.Loop().After(20*Millisecond, func() {
		order = append(order, 2)
		d.Stop()
	})
	d.Loop().After(5*Millisecond, func() { order = append(order, 1) })
	start := time.Now()
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("Run returned after %v, want >= 20ms (wall pacing)", elapsed)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
	if d.Loop().Now() < Time(20*Millisecond) {
		t.Errorf("virtual Now = %v, want >= 20ms", d.Loop().Now())
	}
}

// TestLiveDriverSendFromManyGoroutines: the inbox is the thread-safety
// boundary — concurrent Sends all execute, single-threaded, on the loop.
func TestLiveDriverSendFromManyGoroutines(t *testing.T) {
	d := NewLiveDriver()
	const senders, each = 8, 50
	count := 0 // loop-confined; no lock needed if single-threading holds
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < each; k++ {
				d.Send(func() {
					count++
					if count == senders*each {
						d.Stop()
					}
				})
			}
		}()
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if count != senders*each {
		t.Fatalf("count = %d, want %d", count, senders*each)
	}
}

// TestLiveDriverSendAdvancesClock: an external event observes a loop clock
// already advanced to its arrival instant.
func TestLiveDriverSendAdvancesClock(t *testing.T) {
	d := NewLiveDriver()
	var at Time
	go func() {
		time.Sleep(10 * time.Millisecond)
		d.Send(func() {
			at = d.Loop().Now()
			d.Stop()
		})
	}()
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if at < Time(8*Millisecond) {
		t.Errorf("event saw Now = %v, want >= ~10ms", at)
	}
}

// TestLiveDriverContextCancel: cancellation stops the loop and surfaces the
// context error.
func TestLiveDriverContextCancel(t *testing.T) {
	d := NewLiveDriver()
	d.Loop().Every(Millisecond, func() {})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := d.Run(ctx); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestLiveDriverLateSendDiscarded: a straggler goroutine finishing after
// shutdown must not block or grow state.
func TestLiveDriverLateSendDiscarded(t *testing.T) {
	d := NewLiveDriver()
	d.Loop().After(Millisecond, d.Stop)
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	fired := false
	d.Send(func() { fired = true }) // must not block
	if fired {
		t.Fatal("late Send executed after Run returned")
	}
}

// TestLiveDriverStopFromOtherGoroutine: Stop is safe off-loop and idempotent.
func TestLiveDriverStopFromOtherGoroutine(t *testing.T) {
	d := NewLiveDriver()
	d.Loop().Every(Millisecond, func() {})
	go func() {
		time.Sleep(5 * time.Millisecond)
		d.Stop()
		d.Stop()
	}()
	done := make(chan error, 1)
	go func() { done <- d.Run(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after Stop")
	}
}

// TestLiveDriverBatchEndOncePerBatch: the end-of-batch hook runs on the
// driver goroutine exactly once per drained batch, after that batch's inbox
// events and due timers, however many events the batch carried. Both batches
// are queued before the driver can drain them (the first before Run, the
// second from the hook itself), so the log is decided by ordering alone.
func TestLiveDriverBatchEndOncePerBatch(t *testing.T) {
	d := NewLiveDriver()
	var log []string
	ev := func(name string) func() { return func() { log = append(log, name) } }
	d.Send(ev("a1"))
	d.Send(ev("a2"))
	d.Send(ev("a3"))
	d.Loop().Post(ev("timer"))
	hooks := 0
	d.SetBatchEnd(func() {
		log = append(log, "end")
		hooks++
		switch hooks {
		case 1:
			d.Send(ev("b1"))
			d.Send(ev("b2"))
		case 2:
			d.Stop()
		}
	})
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The timer was due at time zero, so the first inbox event's clock
	// advance runs it; what matters is that it precedes the hook.
	want := []string{"timer", "a1", "a2", "a3", "end", "b1", "b2", "end"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

// TestLiveDriverBatchEndAfterDueTimers: a timer that comes due while the
// batch's inbox events run still fires before the hook.
func TestLiveDriverBatchEndAfterDueTimers(t *testing.T) {
	d := NewLiveDriver()
	var log []string
	d.Send(func() {
		log = append(log, "event")
		d.Loop().Post(func() { log = append(log, "timer") })
	})
	d.SetBatchEnd(func() {
		log = append(log, "end")
		d.Stop()
	})
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(log) != 3 || log[0] != "event" || log[1] != "timer" || log[2] != "end" {
		t.Fatalf("log = %v, want [event timer end]", log)
	}
}

// TestLiveDriverBatchEndNeverAfterStop: a batch that requested Stop — from an
// inbox event or from a timer — ends the run without the hook.
func TestLiveDriverBatchEndNeverAfterStop(t *testing.T) {
	for _, from := range []string{"event", "timer"} {
		d := NewLiveDriver()
		if from == "event" {
			d.Send(d.Stop)
		} else {
			d.Loop().Post(d.Stop)
		}
		hooks := 0
		d.SetBatchEnd(func() { hooks++ })
		if err := d.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if hooks != 0 {
			t.Errorf("stop from %s: hook ran %d times after Stop, want 0", from, hooks)
		}
	}
}
