package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ursa/internal/remote"
	"ursa/internal/wire"
)

// maxWindow caps outstanding jobs per connection. The master's per-client
// send queue holds 256 frames and JobStatus is best-effort: each job costs
// an ack and two status frames, so a deeper window can overflow the queue
// in a burst and drop the very Finished frame the closed loop waits for.
const maxWindow = 64

// statusFallback is how long a submitter waits for a streamed terminal
// status before it polls once; a job that needed the poll counts as failed.
const statusFallback = 30 * time.Second

// terminal is a job's terminal status as the read goroutine saw it.
type terminal struct {
	state byte
	at    time.Time
}

// jobRecord is one closed-loop operation. Times are the client's own: submit
// is taken before Submit is called, ack when it returns, admitted and
// finished on the connection's read goroutine when the status frame arrives.
// Later stamps are clamped to earlier ones, so the three intervals are never
// negative and always sum to finished-submit.
type jobRecord struct {
	id                              int64
	submit, ack, admitted, finished time.Time
	failed                          bool
	why                             string
}

func (r *jobRecord) jct() time.Duration { return r.finished.Sub(r.submit) }

// lgConn is one front-door connection of the load generator. The ack and the
// status stream share the client's single read goroutine, so OnStatus must
// never wait on anything a submitter holds across Submit: mu is taken only
// for map operations.
type lgConn struct {
	cl *remote.Client

	mu      sync.Mutex
	waiters map[int64]chan terminal
	// early holds terminal states that arrived before the submitter had
	// registered the job id Submit returned — a short job can finish in the
	// gap between the ack being read and the submitting goroutine waking.
	early    map[int64]terminal
	admitted map[int64]time.Time // traced runs only

	traced *atomic.Bool
}

func dialConn(addr string, traced *atomic.Bool) (*lgConn, error) {
	c := &lgConn{
		waiters:  make(map[int64]chan terminal),
		early:    make(map[int64]terminal),
		admitted: make(map[int64]time.Time),
		traced:   traced,
	}
	cl, err := remote.DialClient(remote.ClientConfig{Addr: addr, OnStatus: c.onStatus})
	if err != nil {
		return nil, err
	}
	c.cl = cl
	return c, nil
}

func (c *lgConn) onStatus(st wire.JobStatus) {
	now := time.Now()
	switch st.State {
	case wire.StateAdmitted:
		if c.traced.Load() {
			c.mu.Lock()
			c.admitted[st.JobID] = now
			c.mu.Unlock()
		}
	case wire.StateFinished, wire.StateCancelled, wire.StateNotFound:
		t := terminal{state: st.State, at: now}
		c.mu.Lock()
		ch, ok := c.waiters[st.JobID]
		if ok {
			delete(c.waiters, st.JobID)
		} else {
			c.early[st.JobID] = t
		}
		c.mu.Unlock()
		if ok {
			ch <- t // buffered 1, registered once: never blocks
		}
	}
}

// runJob submits one job and waits for its terminal status.
func (c *lgConn) runJob(workload string, params []byte, timer *time.Timer) jobRecord {
	r := jobRecord{submit: time.Now()}
	id, err := c.cl.Submit(workload, params)
	r.ack = time.Now()
	if err != nil {
		r.failed, r.why = true, "submit rejected: "+err.Error()
		r.admitted, r.finished = r.ack, r.ack
		return r
	}
	r.id = id
	c.mu.Lock()
	t, done := c.early[id]
	var ch chan terminal
	if done {
		delete(c.early, id)
	} else {
		ch = make(chan terminal, 1)
		c.waiters[id] = ch
	}
	c.mu.Unlock()
	if !done {
		timer.Reset(statusFallback)
		select {
		case t = <-ch:
			if !timer.Stop() {
				<-timer.C
			}
		case <-timer.C:
			c.mu.Lock()
			delete(c.waiters, id)
			c.mu.Unlock()
			r.failed, r.why = true, "no terminal status within 30s"
			t = terminal{at: time.Now()}
			if st, err := c.cl.Status(id); err == nil {
				t.state = st.State
				r.why += fmt.Sprintf(" (polled state %d)", st.State)
			}
		case <-c.cl.Done():
			r.failed, r.why = true, "front door connection lost"
			t = terminal{at: time.Now()}
		}
	}
	if t.state != wire.StateFinished && !r.failed {
		r.failed, r.why = true, fmt.Sprintf("terminal state %d, want finished", t.state)
	}
	r.admitted = r.ack
	if c.traced.Load() {
		c.mu.Lock()
		if at, ok := c.admitted[id]; ok {
			delete(c.admitted, id)
			r.admitted = at
		}
		c.mu.Unlock()
	}
	if r.ack.Before(r.submit) {
		r.ack = r.submit
	}
	if r.admitted.Before(r.ack) {
		r.admitted = r.ack
	}
	r.finished = t.at
	if r.finished.Before(r.admitted) {
		r.finished = r.admitted
	}
	return r
}

// loadGen drives closed loops over a set of connections: each of its
// goroutines submits its next job only after it saw the previous one finish.
type loadGen struct {
	conns []*lgConn
	// next hands out the seeded job stream; it is safe for concurrent use.
	next func() (string, []byte)

	stop atomic.Bool
	done atomic.Int64 // jobs that reached a terminal state
	wg   sync.WaitGroup

	mu      sync.Mutex
	records []jobRecord
}

// start adds window closed loops on every connection.
func (g *loadGen) start(window int) {
	for _, c := range g.conns {
		for i := 0; i < window; i++ {
			g.wg.Add(1)
			go func(c *lgConn) {
				defer g.wg.Done()
				timer := time.NewTimer(statusFallback)
				timer.Stop() // cannot have fired yet; runJob re-arms it per job
				var local []jobRecord
				for !g.stop.Load() {
					name, params := g.next()
					r := c.runJob(name, params, timer)
					g.done.Add(1)
					local = append(local, r)
					if r.failed {
						// Back off: a refused or lost job must not turn the
						// closed loop into a spin.
						time.Sleep(10 * time.Millisecond)
					}
				}
				g.mu.Lock()
				g.records = append(g.records, local...)
				g.mu.Unlock()
			}(c)
		}
	}
}

// finish stops every loop after its current job and returns all records.
func (g *loadGen) finish() []jobRecord {
	g.stop.Store(true)
	g.wg.Wait()
	return g.records
}
