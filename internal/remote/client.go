package remote

import (
	"errors"
	"fmt"
	"sync"

	"ursa/internal/wire"
)

// ClientConfig shapes one front-door client connection.
type ClientConfig struct {
	// Addr is the master's control-plane address.
	Addr string
	// Tenant names the submitting tenant for weighted fair admission; empty
	// selects the default tenant.
	Tenant string
	// Dial opens the connection; nil selects wire.NetDial.
	Dial wire.DialFunc
	// OnStatus, if set, receives JobStatus lifecycle updates on the client's
	// read goroutine. The master streams these best-effort: a slow client
	// drops updates rather than stalling the master, so OnStatus sees a
	// subsequence of the transitions, not necessarily all of them.
	OnStatus func(wire.JobStatus)
}

// Client submits jobs to a master over its wire front door. One connection
// carries any number of submissions; Submit is safe for concurrent use (each
// call gets its own SubmitID and waits for its own ack).
type Client struct {
	conn   *wire.Conn
	tenant string

	onStatus func(wire.JobStatus)

	mu      sync.Mutex
	nextSub int64
	waiters map[int64]chan wire.SubmitAck
	// queries holds Status waiters by SubmitID. The shared nextSub counter
	// keeps submission and query IDs disjoint, so a streamed lifecycle
	// JobStatus (which echoes the original submission's SubmitID) can never
	// collide with a pending query's reply.
	queries map[int64]chan wire.JobStatus
	readErr error

	done chan struct{}
}

// DialClient connects to a master's front door. A draining master (a batch
// one is from the start of Run) rejects submissions but answers Status.
func DialClient(cfg ClientConfig) (*Client, error) {
	dial := cfg.Dial
	if dial == nil {
		dial = wire.NetDial
	}
	nc, err := dial(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("remote: dial front door %s: %w", cfg.Addr, err)
	}
	c := &Client{
		conn:     wire.NewConnConfig(nc, wire.Config{}),
		tenant:   cfg.Tenant,
		onStatus: cfg.OnStatus,
		waiters:  make(map[int64]chan wire.SubmitAck),
		queries:  make(map[int64]chan wire.JobStatus),
		done:     make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	err := c.conn.ReadLoop(func(msg wire.Msg) error {
		switch msg := msg.(type) {
		case wire.SubmitAck:
			c.mu.Lock()
			ch := c.waiters[msg.SubmitID]
			delete(c.waiters, msg.SubmitID)
			c.mu.Unlock()
			if ch != nil {
				ch <- msg
			}
		case wire.JobStatus:
			c.mu.Lock()
			ch := c.queries[msg.SubmitID]
			delete(c.queries, msg.SubmitID)
			c.mu.Unlock()
			if ch != nil {
				ch <- msg
				return nil // a query reply, not a streamed lifecycle update
			}
			if c.onStatus != nil {
				c.onStatus(msg)
			}
		}
		return nil
	})
	c.mu.Lock()
	c.readErr = err
	c.mu.Unlock()
	close(c.done)
	c.conn.Close()
}

// Submit ships one (workload, params) job and blocks until the master acks
// it, returning the cluster-wide job ID. A rejection (draining, intake full,
// build error) comes back as an error; the connection stays usable.
func (c *Client) Submit(workload string, params []byte) (int64, error) {
	c.mu.Lock()
	c.nextSub++
	id := c.nextSub
	ch := make(chan wire.SubmitAck, 1)
	c.waiters[id] = ch
	c.mu.Unlock()
	ok := c.conn.Send(wire.SubmitJob{
		SubmitID: id, Tenant: c.tenant, Workload: workload, Params: params,
	})
	if !ok {
		c.dropWaiter(id)
		return 0, fmt.Errorf("remote: front door connection lost: %w", c.err())
	}
	select {
	case ack := <-ch:
		if ack.Err != "" {
			return 0, fmt.Errorf("remote: submission rejected: %s", ack.Err)
		}
		return ack.JobID, nil
	case <-c.done:
		c.dropWaiter(id)
		return 0, fmt.Errorf("remote: front door connection lost: %w", c.err())
	}
}

// Cancel requests cancellation of a previously acked job. Best-effort and
// asynchronous: a job already admitted (or finished) is unaffected, and the
// outcome arrives as a JobStatus if the job was still queued.
func (c *Client) Cancel(jobID int64) error {
	if !c.conn.Send(wire.CancelJob{JobID: jobID}) {
		return fmt.Errorf("remote: front door connection lost: %w", c.err())
	}
	return nil
}

// Status queries a job's current state point-in-time. A job the master no
// longer knows — never submitted, or lost across a master restart — comes
// back as wire.StateNotFound with no error: a terminal answer, so pollers
// of a lost job stop instead of waiting forever.
func (c *Client) Status(jobID int64) (wire.JobStatus, error) {
	c.mu.Lock()
	c.nextSub++
	id := c.nextSub
	ch := make(chan wire.JobStatus, 1)
	c.queries[id] = ch
	c.mu.Unlock()
	if !c.conn.Send(wire.JobQuery{SubmitID: id, JobID: jobID}) {
		c.dropQuery(id)
		return wire.JobStatus{}, fmt.Errorf("remote: front door connection lost: %w", c.err())
	}
	select {
	case st := <-ch:
		return st, nil
	case <-c.done:
		c.dropQuery(id)
		return wire.JobStatus{}, fmt.Errorf("remote: front door connection lost: %w", c.err())
	}
}

func (c *Client) dropWaiter(id int64) {
	c.mu.Lock()
	delete(c.waiters, id)
	c.mu.Unlock()
}

func (c *Client) dropQuery(id int64) {
	c.mu.Lock()
	delete(c.queries, id)
	c.mu.Unlock()
}

func (c *Client) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return c.readErr
	}
	if err := c.conn.SendErr(); err != nil {
		return err
	}
	return errors.New("connection closed")
}

// Done is closed when the connection dies; after that no further acks or
// status updates will arrive.
func (c *Client) Done() <-chan struct{} { return c.done }

// Close tears the connection down; in-flight Submits return an error.
func (c *Client) Close() { c.conn.Close() }
