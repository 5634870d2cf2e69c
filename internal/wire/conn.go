package wire

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"
)

// Conn wraps a net.Conn with the frame codec and a single-writer pump: Send
// enqueues a message onto a buffered channel drained by one goroutine, so
// any number of goroutines can send without interleaving frames, and a slow
// or dead peer can never block the caller — the control loop must stay
// responsive even when a worker stops reading. ReadLoop is the inbound half
// and belongs to exactly one goroutine.
type Conn struct {
	nc   net.Conn
	r    *bufio.Reader
	cfg  Config
	out  chan Msg
	quit chan struct{}

	closeOnce sync.Once
	pumpDone  chan struct{}

	// Pooled-read state (cfg.PooledReads): the retained frame buffer, the
	// size of the last frame decoded into it, and its shrink tracker. Owned
	// by the single reader goroutine.
	rbuf      []byte
	lastFrame int
	rdShrink  Shrinker

	mu      sync.Mutex
	sendErr error
}

// sendBuffer bounds the outbound queue. The control plane's messages are
// small and paced by the scheduler; hitting this limit means the peer has
// stopped draining, which we treat as a transport failure rather than
// applying backpressure to the control loop.
const sendBuffer = 1024

// Every Conn's bounds. One value serves every connection kind, deployment
// and test, so they are not Config fields; frames are bounded by
// DefaultMaxFrame in both directions.
const (
	// WriteDeadline bounds each steady-state write in the pump. Without it a
	// dead-but-unclosed peer stalls the single writer until the kernel TCP
	// timeout fires (minutes), filling the outbound queue and escalating to
	// a spurious "send queue full" transport failure.
	WriteDeadline = 10 * time.Second
	// DrainDeadline bounds the graceful-close flush of already-queued frames
	// (Shutdown broadcasts).
	DrainDeadline = 200 * time.Millisecond
)

// Config shapes what differs between connection kinds: the outbound queue
// and whether reads are pooled.
type Config struct {
	// SendQueue bounds the outbound queue; <= 0 selects the default
	// (sendBuffer). Client-facing links on the master size this explicitly
	// so a slow status subscriber has a stated, bounded footprint.
	SendQueue int
	// PooledReads makes ReadMsg decode frames in a connection-retained buffer
	// instead of allocating per frame. The aliasing contract: blob-carrying
	// fields of a decoded message (TaskDone record writes, FetchResp contribs,
	// Prepare params) alias that buffer and are invalidated by the NEXT read
	// on the connection. Handlers that process each message synchronously
	// before the read loop continues are safe as-is; anything that retains a
	// blob past its handler — or hands it to another goroutine — must copy.
	PooledReads bool
}

func (c Config) withDefaults() Config {
	if c.SendQueue <= 0 {
		c.SendQueue = sendBuffer
	}
	return c
}

// NewConnConfig starts the write pump over nc.
func NewConnConfig(nc net.Conn, cfg Config) *Conn {
	return NewConnFrom(nc, bufio.NewReader(nc), cfg)
}

// NewConnFrom is NewConnConfig adopting r as the connection's buffered
// reader. Servers that sniff the first frame off a raw bufio.Reader to
// classify a connection (worker vs client) before choosing its Config hand
// the same reader over here; a fresh bufio.Reader over nc would silently
// drop whatever the peer already sent into r's buffer.
func NewConnFrom(nc net.Conn, r *bufio.Reader, cfg Config) *Conn {
	cfg = cfg.withDefaults()
	c := &Conn{
		nc:       nc,
		r:        r,
		cfg:      cfg,
		out:      make(chan Msg, cfg.SendQueue),
		quit:     make(chan struct{}),
		pumpDone: make(chan struct{}),
	}
	go c.pump()
	return c
}

// RemoteAddr returns the peer's address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// pump is the single writer: it drains the outbound queue, encoding into
// one reusable buffer. A write error poisons the connection (recorded, nc
// closed) so both the reader and future senders observe the failure.
func (c *Conn) pump() {
	defer close(c.pumpDone)
	w := bufio.NewWriter(c.nc)
	var buf []byte
	var lastWrite int
	var wrShrink Shrinker
	for {
		select {
		case <-c.quit:
			// Drain what was queued before the close, under the drain
			// deadline, so a graceful close can deliver its final frames
			// (Shutdown broadcasts) without risking a hang on a dead peer.
			c.nc.SetWriteDeadline(time.Now().Add(DrainDeadline))
			for {
				select {
				case m := <-c.out:
					buf = AppendFrame(buf[:0], m)
					if _, err := w.Write(buf); err != nil {
						return
					}
				default:
					w.Flush()
					return
				}
			}
		case m := <-c.out:
			// Shrink before reuse: one giant frame must not pin its
			// high-water-mark buffer for the connection's lifetime.
			buf = wrShrink.Next(buf, lastWrite)
			buf = AppendFrame(buf[:0], m)
			lastWrite = len(buf)
			if len(buf) > DefaultMaxFrame+headerLen {
				c.fail(fmt.Errorf("wire: outbound frame exceeds max %d", DefaultMaxFrame))
				return
			}
			// Bound the steady-state write: a wedged peer fails fast here
			// instead of stalling the pump until the kernel TCP timeout
			// while the queue fills behind it.
			c.nc.SetWriteDeadline(time.Now().Add(WriteDeadline))
			if _, err := w.Write(buf); err != nil {
				c.fail(err)
				return
			}
			// Flush when the queue is momentarily empty; otherwise let the
			// bufio writer coalesce the burst into fewer syscalls.
			if len(c.out) == 0 {
				if err := w.Flush(); err != nil {
					c.fail(err)
					return
				}
			}
		}
	}
}

func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.sendErr == nil {
		c.sendErr = err
	}
	c.mu.Unlock()
	c.Close()
}

// Send enqueues one message. It never blocks: a full queue or a closed
// connection returns false (and a full queue closes the connection — the
// peer has stopped draining). Callers treat false as the peer being gone;
// the liveness machinery turns that into a worker failure.
func (c *Conn) Send(m Msg) bool {
	select {
	case <-c.quit:
		return false
	default:
	}
	select {
	case c.out <- m:
		return true
	case <-c.quit:
		return false
	default:
		c.fail(fmt.Errorf("wire: send queue full (%d) to %v", c.cfg.SendQueue, c.nc.RemoteAddr()))
		return false
	}
}

// TrySend enqueues one message if the outbound queue has room and reports
// whether it did. Unlike Send, a full queue is NOT a transport failure: the
// frame is simply not sent and the connection stays up. This is the
// drop-with-counter path for best-effort streams (JobStatus to a slow
// subscriber) where dropping an update is better than either unbounded
// buffering or killing the link.
func (c *Conn) TrySend(m Msg) bool {
	select {
	case <-c.quit:
		return false
	default:
	}
	select {
	case c.out <- m:
		return true
	case <-c.quit:
		return false
	default:
		return false
	}
}

// SendErr reports the first write-side error, if any.
func (c *Conn) SendErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sendErr
}

// Close tears the connection down immediately: stops the pump and closes
// the socket (unblocking any ReadLoop). Queued frames may be dropped.
// Idempotent and safe from any goroutine, including the pump itself.
func (c *Conn) Close() { c.shutdown(false) }

// CloseGraceful stops the pump but gives it a bounded window to flush
// already-queued frames before the socket closes — used to deliver final
// Shutdown broadcasts. Must not be called from the pump goroutine.
func (c *Conn) CloseGraceful() { c.shutdown(true) }

func (c *Conn) shutdown(graceful bool) {
	c.closeOnce.Do(func() {
		close(c.quit)
		if graceful {
			select {
			case <-c.pumpDone:
			case <-time.After(DrainDeadline + 50*time.Millisecond):
			}
		}
		c.nc.Close()
	})
}

// ReadMsg reads and decodes one message. It shares the connection's buffered
// reader with ReadLoop, so a handshake can read its reply directly and then
// hand the connection to ReadLoop without losing buffered frames. Exactly
// one goroutine may read at a time. With cfg.PooledReads the decoded
// message's blob fields alias a connection-retained buffer and are valid
// only until the next ReadMsg — see Config.PooledReads.
func (c *Conn) ReadMsg() (Msg, error) {
	if !c.cfg.PooledReads {
		typ, payload, err := ReadFrame(c.r, DefaultMaxFrame)
		if err != nil {
			return nil, err
		}
		return Decode(typ, payload)
	}
	// The previous message is dead by contract, so this is the first moment
	// the retained buffer can be safely shrunk or replaced.
	c.rbuf = c.rdShrink.Next(c.rbuf, c.lastFrame)
	typ, payload, buf, err := ReadFrameInto(c.r, c.rbuf, DefaultMaxFrame)
	c.rbuf = buf
	if err != nil {
		return nil, err
	}
	c.lastFrame = len(payload) + 1
	return Decode(typ, payload)
}

// SetReadDeadline bounds subsequent reads on the underlying connection.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// ReadMsgTimeout reads one message under a read deadline, clearing the
// deadline afterwards on success. A d <= 0 reads without a deadline. The
// returned error satisfies net.Error.Timeout() when the deadline fired —
// callers classify that as retryable.
func (c *Conn) ReadMsgTimeout(d time.Duration) (Msg, error) {
	if d <= 0 {
		return c.ReadMsg()
	}
	if err := c.nc.SetReadDeadline(time.Now().Add(d)); err != nil {
		return nil, err
	}
	m, err := c.ReadMsg()
	if err != nil {
		return nil, err
	}
	if err := c.nc.SetReadDeadline(time.Time{}); err != nil {
		return nil, err
	}
	return m, nil
}

// ReadLoop reads frames until the connection dies or handle returns an
// error, decoding each into a message. It returns the terminal error (io.EOF
// for a clean peer close). Exactly one goroutine may call it.
func (c *Conn) ReadLoop(handle func(Msg) error) error {
	for {
		m, err := c.ReadMsg()
		if err != nil {
			return err
		}
		if err := handle(m); err != nil {
			return err
		}
	}
}
