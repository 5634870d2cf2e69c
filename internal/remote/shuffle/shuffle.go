// Package shuffle moves partition contributions between processes. Every
// node — worker agents and the master — runs a Server that answers
// wire.Fetch requests from the contribution store of the addressed job's
// runtime, and executing agents use Clients to pull the input partitions a
// dispatch names. The master's server fronts the canonical checkpoint store
// (§4.3) on the master's control port, so readers fall back to it when a peer
// origin is dead; agent servers listen on their own port and serve their
// locally produced contributions, which keeps the hot path peer-to-peer.
//
// The data plane is zero-copy on the serve side: contributions are stored
// pre-encoded (localrt's encode-once blob store), so serving a fetch is
// slicing cached bytes into the outgoing frame — no marshalling — and
// spilled contributions stream from disk in bounded chunks, so a served
// partition never has to fit in memory. Both sides run their frame I/O
// through pooled, connection-retained buffers: steady-state fetch traffic
// performs no per-frame allocations.
//
// Every blocking operation here is bounded: servers apply a per-request read
// deadline so a client that opens a connection and goes silent cannot pin a
// serving goroutine forever, and clients apply a per-fetch response deadline
// so a wedged peer (accepted the connection, never answers — a failure mode
// heartbeats cannot see, because the fetching worker is perfectly healthy)
// surfaces as a retryable timeout instead of stalling the job. Transient
// fetch errors are retried with bounded, jittered exponential backoff; only
// after the budget is exhausted does the caller degrade to the master's
// canonical store.
package shuffle

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"ursa/internal/localrt"
	"ursa/internal/wire"
)

// Resolver maps a job ID to the runtime holding its contribution store
// (nil = unknown job).
type Resolver func(jobID int64) *localrt.Runtime

// ServerConfig shapes a shuffle server.
type ServerConfig struct {
	// MaxFrame bounds request and response frames. <= 0 selects the default.
	MaxFrame int
	// ReadIdle bounds how long a serving goroutine waits for the next request
	// on an open connection; an idle or wedged client is disconnected (it
	// transparently redials on its next fetch). <= 0 selects
	// DefaultServerReadIdle; negative values are clamped to it too — use a
	// large value to effectively disable.
	ReadIdle time.Duration
}

// DefaultServerReadIdle is the default per-request read deadline on server
// connections. Generous: it only needs to beat "forever".
const DefaultServerReadIdle = 2 * time.Minute

// spillChunk is the copy-buffer size for streaming spilled contributions:
// large enough to amortize syscalls, small enough that a serving goroutine's
// footprint stays bounded no matter how large the partition on disk is.
const spillChunk = 256 << 10

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxFrame <= 0 {
		c.MaxFrame = wire.DefaultMaxFrame
	}
	if c.ReadIdle <= 0 {
		c.ReadIdle = DefaultServerReadIdle
	}
	return c
}

// Server answers Fetch requests, either on connections its own listener
// accepts (Serve) or on connections another server classified and handed
// over (ServeConn). Each connection is served by one goroutine; requests on a
// connection are processed in order.
type Server struct {
	ln      net.Listener // nil for a listener-less server (NewServer)
	cfg     ServerConfig
	resolve Resolver
	// onServed, if set, observes every served partition's wire bytes (what
	// crossed the network) and raw bytes (the declared encoded size) —
	// the master feeds its transport counters with this.
	onServed func(wireBytes, rawBytes float64)

	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// NewServer returns a server without a listener: connections reach it only
// through ServeConn. The master's canonical store is one, answering on the
// control port.
func NewServer(cfg ServerConfig, resolve Resolver, onServed func(wireBytes, rawBytes float64)) *Server {
	return &Server{
		cfg:      cfg.withDefaults(),
		resolve:  resolve,
		onServed: onServed,
		conns:    make(map[net.Conn]struct{}),
	}
}

// Serve starts a shuffle server that accepts connections on ln.
func Serve(ln net.Listener, cfg ServerConfig, resolve Resolver, onServed func(wireBytes, rawBytes float64)) *Server {
	s := NewServer(cfg, resolve, onServed)
	s.ln = ln
	s.wg.Add(1)
	go s.accept()
	return s
}

// Addr returns the address peers dial to fetch from this server's listener.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes open connections, and waits for the
// per-connection goroutines to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) accept() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Counted before the goroutine starts (accept's own count is still
		// held), so Close waits for it even if it has not reached ServeConn.
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.ServeConn(nc, bufio.NewReader(nc), nil)
		}()
	}
}

// respMetaLen is the fixed per-contribution metadata inside a FetchResp:
// i32 producer + flags byte + u32 raw length + u32 blob length prefix.
const respMetaLen = 4 + 1 + 4 + 4

// respHeadLen is the fixed FetchResp prefix: type byte + empty error string
// prefix + u32 contribution count.
const respHeadLen = 1 + 4 + 4

// ServeConn answers fetches on nc, reading through r, until the peer closes,
// goes silent past ReadIdle, or the server closes; it closes nc on return.
// first, when non-nil, is a request already read off r: the master's
// handshake reads a connection's first frame to tell a fetch from a worker or
// a client.
//
// The loop runs on raw frames rather than a wire.Conn: responses are
// streamed (a spilled partition is copied through a bounded chunk buffer,
// never materialized), which a whole-frame send pump cannot express. Requests
// on a connection are strictly serialized, so one read buffer and one scratch
// ref slice serve the connection's lifetime — the steady-state serve path
// allocates nothing.
func (s *Server) ServeConn(nc net.Conn, r *bufio.Reader, first *wire.Fetch) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[nc] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		nc.Close()
	}()
	w := bufio.NewWriter(nc)
	var (
		rbuf      []byte
		lastFrame int
		rdShrink  wire.Shrinker
		refs      []localrt.BlobRef
	)
	defer func() { wire.PutBuf(rbuf) }()
	for {
		var f wire.Fetch
		if first != nil {
			f, first = *first, nil
		} else {
			// Bound the wait for the next request: a silent client is cut
			// loose instead of pinning this goroutine until process exit.
			if err := nc.SetReadDeadline(time.Now().Add(s.cfg.ReadIdle)); err != nil {
				return
			}
			rbuf = rdShrink.Next(rbuf, lastFrame)
			typ, payload, nb, err := wire.ReadFrameInto(r, rbuf, s.cfg.MaxFrame)
			rbuf = nb
			if err != nil {
				return
			}
			lastFrame = len(payload) + 1
			if typ != wire.TFetch {
				return // protocol violation: drop the connection
			}
			if f, err = wire.DecodeFetch(payload); err != nil {
				return
			}
		}
		// Bound the response write symmetrically: a client that stops
		// draining cannot wedge the server goroutine.
		if err := nc.SetWriteDeadline(time.Now().Add(s.cfg.ReadIdle)); err != nil {
			return
		}
		var err error
		refs = refs[:0]
		if refs, err = s.writeResp(w, f, refs); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// writeResp answers one fetch. Well-formed failures (unknown job, bad
// partition, oversized partition, storage error) go back as FetchResp.Err
// frames — the client classifies those as non-retryable protocol errors.
// A transport or mid-stream spill failure returns an error and the caller
// drops the connection (the torn frame surfaces client-side as a retryable
// truncation).
func (s *Server) writeResp(w *bufio.Writer, f wire.Fetch, refs []localrt.BlobRef) ([]localrt.BlobRef, error) {
	fail := func(msg string) ([]localrt.BlobRef, error) {
		return refs, writeErrResp(w, msg)
	}
	rt := s.resolve(f.JobID)
	if rt == nil {
		return fail(fmt.Sprintf("shuffle: unknown job %d", f.JobID))
	}
	d := rt.DatasetByID(int(f.DatasetID))
	if d == nil {
		return fail(fmt.Sprintf("shuffle: job %d has no dataset %d", f.JobID, f.DatasetID))
	}
	if f.Part < 0 || int(f.Part) >= d.Partitions {
		return fail(fmt.Sprintf("shuffle: dataset %d part %d out of range", f.DatasetID, f.Part))
	}
	var err error
	refs, err = rt.PartBlobsAppend(refs, d, int(f.Part))
	if err != nil {
		return fail(err.Error())
	}
	// The frame length is computed from blob metadata alone — no blob needs
	// to be resident to size the response.
	frameLen := respHeadLen
	var wireBytes, rawBytes float64
	for i := range refs {
		frameLen += respMetaLen + refs[i].Len
		wireBytes += float64(refs[i].Len)
		rawBytes += float64(refs[i].RawLen)
	}
	if frameLen > s.cfg.MaxFrame {
		// Refusing cleanly beats writing a frame the client must reject:
		// the requester gets a diagnosable failure instead of a torn stream.
		return fail(fmt.Sprintf("shuffle: dataset %d part %d response (%d bytes) exceeds max frame %d",
			f.DatasetID, f.Part, frameLen, s.cfg.MaxFrame))
	}
	var scratch [respMetaLen]byte
	binary.BigEndian.PutUint32(scratch[:4], uint32(frameLen))
	scratch[4] = wire.TFetchResp
	binary.BigEndian.PutUint32(scratch[5:9], 0) // empty error string
	if _, err := w.Write(scratch[:9]); err != nil {
		return refs, err
	}
	binary.BigEndian.PutUint32(scratch[:4], uint32(len(refs)))
	if _, err := w.Write(scratch[:4]); err != nil {
		return refs, err
	}
	for i := range refs {
		ref := &refs[i]
		binary.BigEndian.PutUint32(scratch[0:4], uint32(int32(ref.MTID)))
		scratch[4] = ref.Flags
		binary.BigEndian.PutUint32(scratch[5:9], uint32(ref.RawLen))
		binary.BigEndian.PutUint32(scratch[9:13], uint32(ref.Len))
		if _, err := w.Write(scratch[:respMetaLen]); err != nil {
			return refs, err
		}
		if ref.InMemory() {
			// The zero-copy path: the cached encode-once blob is sliced
			// straight into the socket buffer.
			if _, err := w.Write(ref.Data); err != nil {
				return refs, err
			}
			continue
		}
		if err := streamSpilled(w, ref); err != nil {
			// The frame header is already on the wire: the connection is
			// poisoned. The client sees a truncated frame and retries.
			return refs, err
		}
	}
	if s.onServed != nil {
		s.onServed(wireBytes, rawBytes)
	}
	return refs, nil
}

// streamSpilled copies one spilled blob from disk into the response through
// a bounded pooled chunk buffer.
func streamSpilled(w *bufio.Writer, ref *localrt.BlobRef) error {
	n := ref.Len
	if n > spillChunk {
		n = spillChunk
	}
	buf := wire.GetBuf(n)
	defer wire.PutBuf(buf)
	for off := 0; off < ref.Len; {
		end := off + len(buf)
		if end > ref.Len {
			end = ref.Len
		}
		if _, err := ref.ReadAt(buf[:end-off], int64(off)); err != nil {
			return err
		}
		if _, err := w.Write(buf[:end-off]); err != nil {
			return err
		}
		off = end
	}
	return nil
}

// writeErrResp emits a FetchResp carrying only an error string.
func writeErrResp(w *bufio.Writer, msg string) error {
	frameLen := 1 + 4 + len(msg) + 4
	var hdr [9]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(frameLen))
	hdr[4] = wire.TFetchResp
	binary.BigEndian.PutUint32(hdr[5:9], uint32(len(msg)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.WriteString(msg); err != nil {
		return err
	}
	var count [4]byte
	_, err := w.Write(count[:]) // zero contributions
	return err
}

// ClientConfig shapes a fetch client's transport behaviour.
type ClientConfig struct {
	// MaxFrame bounds request and response frames. <= 0 selects the default.
	MaxFrame int
	// Dial opens connections to the holder; nil selects wire.NetDial. Tests
	// compose fault injectors here.
	Dial wire.DialFunc
	// ReadTimeout bounds each fetch's response wait — the deadline that
	// turns a wedged peer into a retryable error. It also bounds the request
	// write. <= 0 selects DefaultFetchReadTimeout.
	ReadTimeout time.Duration
	// Retries is how many times a transient transport error (dial failure,
	// timeout, truncation, reset) is retried after the first attempt.
	// < 0 disables retries; 0 selects DefaultFetchRetries.
	Retries int
	// BackoffBase and BackoffMax shape the bounded, jittered exponential
	// backoff between attempts (wire.Backoff).
	// <= 0 selects the defaults.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed fixes the jitter sequence; 0 seeds from the address (stable but
	// distinct per holder).
	Seed int64
}

// Fetch transport defaults.
const (
	DefaultFetchReadTimeout = 5 * time.Second
	DefaultFetchRetries     = 3
	DefaultBackoffBase      = 10 * time.Millisecond
	DefaultBackoffMax       = 250 * time.Millisecond
)

func (c ClientConfig) withDefaults(addr string) ClientConfig {
	if c.MaxFrame <= 0 {
		c.MaxFrame = wire.DefaultMaxFrame
	}
	if c.Dial == nil {
		c.Dial = wire.NetDial
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = DefaultFetchReadTimeout
	}
	if c.Retries == 0 {
		c.Retries = DefaultFetchRetries
	} else if c.Retries < 0 {
		c.Retries = 0
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = DefaultBackoffBase
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = DefaultBackoffMax
	}
	if c.Seed == 0 {
		var h int64 = 1469598103934665603
		for i := 0; i < len(addr); i++ {
			h = (h ^ int64(addr[i])) * 1099511628211
		}
		c.Seed = h
	}
	return c
}

// Client fetches partitions from one holder address over a lazily dialed,
// cached connection. Requests are serialized; a transport error poisons the
// connection so the next attempt redials. The client owns one pooled read
// buffer and a reusable decoded response, so its steady-state fetch path
// allocates nothing.
type Client struct {
	addr string
	cfg  ClientConfig

	mu  sync.Mutex
	nc  net.Conn
	rd  *bufio.Reader
	rng *rand.Rand

	rbuf      []byte
	lastFrame int
	rdShrink  wire.Shrinker
	reqBuf    []byte
	resp      wire.FetchResp
}

// NewClient returns a client for the holder at addr (dialed on first use).
func NewClient(addr string, cfg ClientConfig) *Client {
	cfg = cfg.withDefaults(addr)
	return &Client{addr: addr, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// FetchFunc pulls one partition's contributions and hands the decoded
// response to sink. The response's contribution blobs alias the client's
// retained read buffer: they are valid only for the duration of the sink
// call, and a sink that keeps bytes must copy them (or hand ownership of a
// copy to a store, as the agent does). wireBytes is the payload bytes that
// crossed the network, rawBytes their declared encoded size — the
// numbers the agent reports in a monotask's record. retries is how many attempts
// beyond the first were needed; err is non-nil only once the retry budget
// is exhausted (transient transport faults — dial failures, response
// timeouts, mid-frame truncations — are absorbed here). Protocol-level
// errors from a healthy holder (unknown job, bad partition) are returned
// immediately and keep the connection cached. A sink error aborts without
// retry: the transfer itself succeeded.
func (c *Client) FetchFunc(jobID int64, dsID, part, origin int32, sink func(*wire.FetchResp) error) (wireBytes, rawBytes float64, retries int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for attempt := 0; ; attempt++ {
		wireBytes, rawBytes, err = c.fetchOnce(jobID, dsID, part, origin, sink)
		if err == nil || !retryable(err) {
			return wireBytes, rawBytes, retries, err
		}
		if attempt >= c.cfg.Retries {
			return 0, 0, retries, fmt.Errorf(
				"shuffle: fetch from %s failed after %d attempts: %w", c.addr, attempt+1, err)
		}
		retries++
		time.Sleep(wire.Backoff(c.rng, c.cfg.BackoffBase, c.cfg.BackoffMax, attempt))
	}
}

// Fetch is FetchFunc with copying: the returned contributions own their
// bytes and survive subsequent fetches. Convenience for tests and callers
// off the hot path.
func (c *Client) Fetch(jobID int64, dsID, part, origin int32) (contribs []wire.PartContrib, wireBytes, rawBytes float64, retries int, err error) {
	wireBytes, rawBytes, retries, err = c.FetchFunc(jobID, dsID, part, origin, func(resp *wire.FetchResp) error {
		contribs = make([]wire.PartContrib, len(resp.Contribs))
		for i, pc := range resp.Contribs {
			pc.Rows = append([]byte(nil), pc.Rows...)
			contribs[i] = pc
		}
		return nil
	})
	return contribs, wireBytes, rawBytes, retries, err
}

// retryable classifies fetch errors: every transport-level failure (dial,
// write, read, timeout, decode-on-torn-frame) is transient and worth
// retrying; only protocol-level errors from a healthy holder are not.
func retryable(err error) bool {
	var pe *protocolError
	return !errors.As(err, &pe)
}

// protocolError marks a well-formed error response from a healthy holder —
// and a sink failure, which must not trigger a redundant re-transfer.
type protocolError struct {
	msg   string
	cause error
}

func (e *protocolError) Error() string { return e.msg }
func (e *protocolError) Unwrap() error { return e.cause }

// fetchOnce performs one attempt over the cached connection (dialing if
// needed). Transport errors poison the connection. Called with mu held.
func (c *Client) fetchOnce(jobID int64, dsID, part, origin int32, sink func(*wire.FetchResp) error) (float64, float64, error) {
	if c.nc == nil {
		nc, err := c.cfg.Dial(c.addr)
		if err != nil {
			return 0, 0, fmt.Errorf("shuffle: dial %s: %w", c.addr, err)
		}
		c.nc = nc
		c.rd = bufio.NewReader(nc)
	}
	fail := func(err error) (float64, float64, error) {
		c.nc.Close()
		c.nc = nil
		c.rd = nil
		return 0, 0, err
	}
	c.reqBuf = wire.AppendFetchFrame(c.reqBuf[:0], wire.Fetch{JobID: jobID, DatasetID: dsID, Part: part, Origin: origin})
	// The write deadline bounds a wedged request write (full socket buffers
	// on a dead peer); the read deadline turns a holder that read the
	// request but never answers into a retryable timeout.
	if err := c.nc.SetDeadline(time.Now().Add(c.cfg.ReadTimeout)); err != nil {
		return fail(fmt.Errorf("shuffle: fetch from %s: %w", c.addr, err))
	}
	if _, err := c.nc.Write(c.reqBuf); err != nil {
		return fail(fmt.Errorf("shuffle: send to %s: %w", c.addr, err))
	}
	c.rbuf = c.rdShrink.Next(c.rbuf, c.lastFrame)
	typ, payload, nb, err := wire.ReadFrameInto(c.rd, c.rbuf, c.cfg.MaxFrame)
	c.rbuf = nb
	if err != nil {
		return fail(fmt.Errorf("shuffle: fetch from %s: %w", c.addr, err))
	}
	c.lastFrame = len(payload) + 1
	if err := c.nc.SetDeadline(time.Time{}); err != nil {
		return fail(fmt.Errorf("shuffle: fetch from %s: %w", c.addr, err))
	}
	if typ != wire.TFetchResp {
		return fail(fmt.Errorf("shuffle: unexpected frame type %d from %s", typ, c.addr))
	}
	if err := wire.DecodeFetchRespInto(payload, &c.resp); err != nil {
		return fail(fmt.Errorf("shuffle: fetch from %s: %w", c.addr, err))
	}
	if c.resp.Err != "" {
		// Protocol-level error on a healthy connection: keep it cached.
		return 0, 0, &protocolError{msg: fmt.Sprintf("shuffle: %s: %s", c.addr, c.resp.Err)}
	}
	var wireBytes, rawBytes float64
	for i := range c.resp.Contribs {
		wireBytes += float64(len(c.resp.Contribs[i].Rows))
		rawBytes += float64(c.resp.Contribs[i].RawLen)
	}
	if sink != nil {
		if err := sink(&c.resp); err != nil {
			// The bytes arrived; failing to consume them is not a transport
			// fault and a retry would re-fail identically.
			return 0, 0, &protocolError{msg: fmt.Sprintf("shuffle: consuming fetch from %s: %v", c.addr, err), cause: err}
		}
	}
	return wireBytes, rawBytes, nil
}

// Close drops the cached connection and releases the retained read buffer.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
		c.rd = nil
	}
	wire.PutBuf(c.rbuf)
	c.rbuf = nil
	c.resp = wire.FetchResp{}
}
