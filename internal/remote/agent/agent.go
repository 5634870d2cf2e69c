// Package agent is the worker side of the distributed data plane: a process
// that joins a master's cluster, rebuilds job plans from the workload
// registry, executes dispatched monotasks with the local runtime, serves its
// partition contributions to peers over the shuffle protocol, and reports
// *measured* completions — the (bytes, seconds) samples the master feeds
// into its per-worker processing-rate monitors (§4.2.1–4.2.2), now crossing
// a socket instead of a function call.
package agent

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ursa/internal/localrt"
	"ursa/internal/remote/shuffle"
	"ursa/internal/remote/workload"
	"ursa/internal/wire"
)

// Config shapes one worker agent.
type Config struct {
	// MasterAddrs lists every control-plane address a master for this
	// cluster may answer on (primary first, then standbys); registration
	// attempts walk it round-robin. With one entry a lost master connection
	// ends the agent. With more than one it triggers re-registration instead
	// — the failover path: the agent re-attaches to whichever master holds
	// the lease, keeping its worker ID under the new generation.
	MasterAddrs []string
	// ShuffleAddr is the address the agent's shuffle server listens on;
	// empty picks an ephemeral 127.0.0.1 port (loopback clusters) — real
	// deployments pass host:0 or host:port so peers can reach it.
	ShuffleAddr string
	// Cores bounds concurrent monotask execution. Default: GOMAXPROCS.
	Cores int
	// MemBytes, CoreRate, NetBandwidth and DiskBandwidth advertise this
	// machine's profile to the master (scheduler accounting units: rows and
	// rows/sec for the local runtime). All zero means unprofiled — the
	// master keeps its uniform per-worker defaults. Any non-zero field
	// makes the master rebuild this worker's scheduler capacities and
	// nominal rates from the profile (plus Cores) before dispatching to it.
	MemBytes      float64
	CoreRate      float64
	NetBandwidth  float64
	DiskBandwidth float64
	// ExecDelay artificially stretches every monotask execution, inside
	// the timed section the Complete message reports — the agent measures
	// honestly, so the master's rate monitors see a machine delivering
	// below its advertised profile. This is the contention injection knob
	// for heterogeneous-cluster tests and smoke runs; zero for production.
	ExecDelay time.Duration
	// Compress offers per-contribution compression at registration; it is in
	// effect only when the master also enables it (Welcome echoes the
	// negotiated outcome). Off by default.
	Compress bool
	// ShuffleMemBudget bounds the bytes of pre-encoded contributions each
	// job's store keeps in memory; beyond it, contributions spill to disk and
	// are served by streaming reads. <= 0 disables spilling.
	ShuffleMemBudget int64
	// ShuffleSpillDir is where spill files are created; empty selects the
	// system temp dir.
	ShuffleSpillDir string
	// Logf, if set, receives the agent's log lines.
	Logf func(format string, args ...any)

	// Dial opens the control connection to the master. nil = wire.NetDial.
	Dial wire.DialFunc
	// ShuffleDial opens fetch connections to peers and to the master's
	// canonical store. nil falls back to Dial, then wire.NetDial — tests
	// fault the data plane here without touching the control plane.
	ShuffleDial wire.DialFunc
	// ShuffleListen opens the agent's shuffle listener. nil = wire.NetListen.
	ShuffleListen wire.ListenFunc

	// RegisterAttempts bounds registration (dial + handshake) attempts: a
	// worker started moments before its master — or across a transient
	// refusal — retries with capped, jittered exponential backoff instead of
	// exiting. Default 10; 1 is one-shot.
	RegisterAttempts int
	// RegisterBackoff is the backoff base between registration attempts and
	// RegisterBackoffMax its cap. Defaults: 50ms, 1s.
	RegisterBackoff    time.Duration
	RegisterBackoffMax time.Duration

	// FetchTimeout bounds each shuffle fetch's response wait; FetchRetries,
	// FetchBackoff and FetchBackoffMax shape the retry/backoff of transient
	// fetch faults (defaults per shuffle.ClientConfig). Only after retries
	// are exhausted does a fetch degrade to the master's canonical store.
	FetchTimeout    time.Duration
	FetchRetries    int
	FetchBackoff    time.Duration
	FetchBackoffMax time.Duration
}

// Registration retry defaults.
const (
	defaultRegisterAttempts   = 10
	defaultRegisterBackoff    = 50 * time.Millisecond
	defaultRegisterBackoffMax = time.Second
)

// Control-link bounds: one value serves every deployment and test, so they
// are not Config fields (the graceful-close flush window and the shuffle
// server's idle cutoff are wire's and shuffle's own defaults).
const (
	// handshakeTimeout bounds the wait for the master's Welcome on each
	// registration attempt.
	handshakeTimeout = 5 * time.Second
	// writeDeadline bounds each control-plane write (heartbeats, completions)
	// so a dead-but-unclosed master fails the pump fast instead of wedging it
	// until the kernel TCP timeout.
	writeDeadline = 10 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Cores <= 0 {
		c.Cores = runtime.GOMAXPROCS(0)
	}
	if c.Dial == nil {
		c.Dial = wire.NetDial
	}
	if c.ShuffleDial == nil {
		c.ShuffleDial = c.Dial
	}
	if c.ShuffleListen == nil {
		c.ShuffleListen = wire.NetListen
	}
	if c.RegisterAttempts <= 0 {
		c.RegisterAttempts = defaultRegisterAttempts
	}
	if c.RegisterBackoff <= 0 {
		c.RegisterBackoff = defaultRegisterBackoff
	}
	if c.RegisterBackoffMax <= 0 {
		c.RegisterBackoffMax = defaultRegisterBackoffMax
	}
	return c
}

type fetchKey struct {
	ds     int32
	part   int32
	origin int32
}

// jobState is one prepared job on the agent: the locally rebuilt plan and
// the contribution store that both feeds executions and serves peers.
type jobState struct {
	rt *localrt.Runtime

	mu      sync.Mutex
	fetched map[fetchKey]bool
}

type dispatchKey struct {
	job int64
	mt  int32
}

type inflight struct {
	seq     uint64
	aborted atomic.Bool
}

// Agent is one running worker agent.
type Agent struct {
	cfg Config

	// conn is the live control connection; replaced atomically when the
	// agent re-attaches to a standby master after a failover (readLoop
	// swaps it while heartbeats and completions keep loading it).
	conn    atomic.Pointer[wire.Conn]
	id      int32
	gen     atomic.Int64 // master generation from the latest Welcome
	hb      time.Duration
	shuffle *shuffle.Server
	// compress is the negotiated compression outcome (offered by this agent
	// AND enabled on the master); it configures every job runtime's codec.
	// Written only on the Dial and readLoop goroutines, which also run every
	// prepare — the one reader.
	compress bool
	// registered flips after the first Welcome: from then on the agent
	// re-registers as its assigned worker ID instead of a fresh -1.
	registered bool

	sem  chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup

	mu sync.Mutex
	// masterShuffleAddr is the fallback fetch holder: the master's canonical
	// checkpoint store (Welcome.MasterShuffleAddr). Under mu — rewritten at
	// re-attach while execute goroutines read it.
	masterShuffleAddr string
	jobs              map[int64]*jobState
	clients           map[string]*shuffle.Client
	inflight          map[dispatchKey]*inflight

	closeOnce sync.Once
	done      chan error
}

// Dial connects to the master, registers (retrying transient failures with
// capped, jittered exponential backoff — a worker started moments before its
// master must join, not exit), and starts the agent's read loop, heartbeats
// and shuffle server. It returns once the handshake completes; Wait blocks
// until the agent exits.
func Dial(cfg Config) (*Agent, error) {
	if len(cfg.MasterAddrs) == 0 {
		return nil, fmt.Errorf("agent: no master address configured")
	}
	cfg = cfg.withDefaults()
	a := &Agent{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.Cores),
		quit:     make(chan struct{}),
		jobs:     make(map[int64]*jobState),
		clients:  make(map[string]*shuffle.Client),
		inflight: make(map[dispatchKey]*inflight),
		done:     make(chan error, 1),
	}

	shufAddr := cfg.ShuffleAddr
	if shufAddr == "" {
		shufAddr = "127.0.0.1:0"
	}
	srv, err := shuffle.Listen(shufAddr, shuffle.ServerConfig{Listen: cfg.ShuffleListen},
		a.resolveJob, nil)
	if err != nil {
		return nil, err
	}
	a.shuffle = srv

	w, err := a.register(srv.Addr())
	if err != nil {
		srv.Close()
		return nil, err
	}
	a.id = w.WorkerID
	a.registered = true
	a.hb = time.Duration(w.HeartbeatMicros) * time.Microsecond
	a.applyWelcome(w)
	a.logf("agent %d: joined master %s gen %d (hb=%v shuffle=%s)",
		a.id, a.conn.Load().RemoteAddr(), w.Gen, a.hb, srv.Addr())

	a.wg.Add(2)
	go a.heartbeats()
	go a.readLoop()
	return a, nil
}

// register performs the dial + Register + Welcome handshake, retrying
// transient failures (refused dial, handshake timeout, torn connection) up
// to RegisterAttempts with jittered exponential backoff capped at
// RegisterBackoffMax. Attempts round-robin across MasterAddrs, so during a
// failover the agent probes the standby as readily as the (dead) primary.
// On success a.conn holds the registered connection.
func (a *Agent) register(shuffleAddr string) (wire.Welcome, error) {
	cfg := a.cfg
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	var lastErr error
	for attempt := 0; attempt < cfg.RegisterAttempts; attempt++ {
		if attempt > 0 {
			d := cfg.RegisterBackoff << uint(attempt-1)
			if d > cfg.RegisterBackoffMax || d <= 0 {
				d = cfg.RegisterBackoffMax
			}
			sleep := d/2 + time.Duration(rng.Int63n(int64(d/2)))
			a.logf("agent: registration attempt %d failed (%v), retrying in %v",
				attempt, lastErr, sleep)
			select {
			case <-a.quit:
				return wire.Welcome{}, fmt.Errorf("agent: shutting down")
			case <-time.After(sleep):
			}
		}
		w, err := a.registerOnce(cfg.MasterAddrs[attempt%len(cfg.MasterAddrs)], shuffleAddr)
		if err == nil {
			return w, nil
		}
		lastErr = err
	}
	return wire.Welcome{}, fmt.Errorf("agent: registration with %s failed after %d attempts: %w",
		strings.Join(cfg.MasterAddrs, ","), cfg.RegisterAttempts, lastErr)
}

func (a *Agent) registerOnce(addr, shuffleAddr string) (wire.Welcome, error) {
	cfg := a.cfg
	nc, err := cfg.Dial(addr)
	if err != nil {
		return wire.Welcome{}, fmt.Errorf("agent: dial master %s: %w", addr, err)
	}
	conn := wire.NewConnConfig(nc, wire.Config{
		WriteDeadline: writeDeadline,
		// Control-plane blobs (Prepare params) are consumed synchronously
		// inside the read-loop handler, so pooled frames are safe here.
		PooledReads: true,
	})
	// A fresh worker registers as -1 and is assigned an ID; after the first
	// Welcome the agent re-registers as that ID, which a takeover master
	// matches against the replayed control-plane state to re-attach it.
	workerID := int32(-1)
	if a.registered {
		workerID = a.id
	}
	if !conn.Send(wire.Register{
		WorkerID: workerID, Gen: a.gen.Load(),
		ShuffleAddr: shuffleAddr, Cores: int32(cfg.Cores), Compress: cfg.Compress,
		MemBytes: cfg.MemBytes, CoreRate: cfg.CoreRate,
		NetBandwidth: cfg.NetBandwidth, DiskBandwidth: cfg.DiskBandwidth,
	}) {
		conn.Close()
		return wire.Welcome{}, fmt.Errorf("agent: registration send failed")
	}
	// Bounded handshake read: a master that accepted but never answers
	// (wedged, mid-crash) must not hang the worker forever.
	m, err := conn.ReadMsgTimeout(handshakeTimeout)
	if err != nil {
		conn.Close()
		return wire.Welcome{}, fmt.Errorf("agent: reading welcome: %w", err)
	}
	w, ok := m.(wire.Welcome)
	if !ok {
		conn.Close()
		return wire.Welcome{}, fmt.Errorf("agent: expected welcome, got %T", m)
	}
	select {
	case <-a.quit: // Kill raced the re-registration; don't leak the conn
		conn.Close()
		return wire.Welcome{}, fmt.Errorf("agent: shutting down")
	default:
	}
	a.conn.Store(conn)
	return w, nil
}

// applyWelcome installs the negotiated per-master settings from a Welcome —
// at first join and again at every re-attach.
func (a *Agent) applyWelcome(w wire.Welcome) {
	a.gen.Store(w.Gen)
	a.compress = w.Compress
	a.mu.Lock()
	a.masterShuffleAddr = w.MasterShuffleAddr
	a.mu.Unlock()
}

// masterAddr returns the master's canonical-store fetch address.
func (a *Agent) masterAddr() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.masterShuffleAddr
}

// ID returns the worker ID the master assigned.
func (a *Agent) ID() int { return int(a.id) }

// Gen returns the master generation from the latest Welcome — it advances
// when the agent re-attaches to a standby that took over.
func (a *Agent) Gen() int64 { return a.gen.Load() }

// ShuffleAddr returns the address this agent serves partitions on.
func (a *Agent) ShuffleAddr() string { return a.shuffle.Addr() }

// Wait blocks until the agent exits and returns its terminal error (nil for
// a clean master-initiated shutdown).
func (a *Agent) Wait() error { return <-a.done }

// Kill abruptly severs the agent — control connection, shuffle server,
// everything — without draining. It exists for fault-injection tests: the
// master observes exactly what a crashed worker process looks like.
func (a *Agent) Kill() { a.shutdown(fmt.Errorf("agent: killed")) }

// Stop drains in-flight executions and leaves the cluster cleanly — the
// worker binary's SIGINT/SIGTERM path. The master sees the connection drop
// and fails this worker through the §4.3 recovery path; committed outputs
// stay durable at its checkpoint.
func (a *Agent) Stop() {
	a.drain()
	a.shutdown(nil)
}

func (a *Agent) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}

// shutdown tears the agent down once; err==nil is a clean shutdown.
func (a *Agent) shutdown(err error) {
	a.closeOnce.Do(func() {
		close(a.quit)
		a.conn.Load().Close()
		a.shuffle.Close()
		a.mu.Lock()
		clients := a.clients
		a.clients = map[string]*shuffle.Client{}
		a.mu.Unlock()
		for _, c := range clients {
			c.Close()
		}
		// The shuffle server is down, so no connection can still be streaming
		// from a spill file: safe to release them.
		a.mu.Lock()
		jobs := a.jobs
		a.jobs = map[int64]*jobState{}
		a.mu.Unlock()
		for _, js := range jobs {
			js.rt.Close()
		}
		go func() {
			a.wg.Wait()
			a.done <- err
		}()
	})
}

func (a *Agent) heartbeats() {
	defer a.wg.Done()
	hb := a.hb
	if hb <= 0 {
		hb = 100 * time.Millisecond
	}
	t := time.NewTicker(hb)
	defer t.Stop()
	for {
		select {
		case <-a.quit:
			return
		case now := <-t.C:
			a.conn.Load().Send(wire.Heartbeat{WorkerID: a.id, SentUnixMicros: now.UnixMicro()})
		}
	}
}

// readLoop is the control-plane inbound path. Prepare is handled
// synchronously so the per-connection FIFO guarantees every Dispatch for a
// job arrives after its plan exists; Dispatch execution is asynchronous.
// With standby masters configured (len(MasterAddrs) > 1), a lost connection
// re-registers instead of exiting: in-flight work is aborted (the next
// master re-schedules from its replayed state), then the agent re-attaches
// as its existing worker ID under the new generation.
func (a *Agent) readLoop() {
	defer a.wg.Done()
	for {
		err := a.conn.Load().ReadLoop(a.handleMsg)
		if err == errClean {
			a.logf("agent %d: shutdown requested, draining", a.id)
			a.drain()
			a.shutdown(nil)
			return
		}
		select {
		case <-a.quit: // already shutting down (Kill or master gone)
			a.shutdown(err)
			return
		default:
		}
		if len(a.cfg.MasterAddrs) <= 1 {
			a.shutdown(fmt.Errorf("agent: master connection lost: %w", err))
			return
		}
		a.logf("agent %d: master connection lost (%v), re-registering", a.id, err)
		a.abortInflight()
		w, rerr := a.register(a.shuffle.Addr())
		if rerr != nil {
			a.shutdown(fmt.Errorf("agent: master connection lost: %w (re-registration: %v)", err, rerr))
			return
		}
		a.applyWelcome(w)
		a.logf("agent %d: re-attached under generation %d", a.id, w.Gen)
	}
}

func (a *Agent) handleMsg(m wire.Msg) error {
	switch m := m.(type) {
	case wire.Prepare:
		a.handlePrepare(m)
	case wire.Dispatch:
		a.handleDispatch(m)
	case wire.Abort:
		a.handleAbort(m)
	case wire.JobDone:
		a.mu.Lock()
		js := a.jobs[m.JobID]
		delete(a.jobs, m.JobID)
		a.mu.Unlock()
		if js != nil {
			// Releases the job's spill file; the shuffle server can no
			// longer resolve the job, so nothing serves from it.
			js.rt.Close()
		}
	case wire.DrainWorker:
		// The master is draining this worker: no further dispatches will
		// arrive, but in-flight work keeps running and the shuffle server
		// keeps serving peers until DrainDone says every consumer is settled.
		a.logf("agent %d: draining (%s)", a.id, m.Reason)
	case wire.DrainDone:
		// Drain complete: fetch routing has migrated off this worker and its
		// last completion is committed. Exit cleanly.
		return errClean
	case wire.Shutdown:
		return errClean
	default:
		return fmt.Errorf("agent: unexpected %T on control connection", m)
	}
	return nil
}

// RequestDrain asks the master to drain this worker gracefully — the
// -drain-on-signal path. The master stops dispatching here, lets in-flight
// monotasks commit, migrates fetch routing off this worker, and answers
// DrainDone, which shuts the agent down cleanly (Wait returns nil). Returns
// false when the control connection is already down; callers fall back to
// Stop.
func (a *Agent) RequestDrain(reason string) bool {
	return a.conn.Load().Send(wire.DrainWorker{WorkerID: a.id, Reason: reason})
}

// abortInflight marks every in-flight execution aborted so its completion
// is swallowed: those dispatches belong to a dead master's generation, and
// the successor re-dispatches from replayed state. Local execution still
// runs to completion — its commit into the job runtime is idempotent, so a
// re-dispatch of the same monotask to this agent reuses the work.
func (a *Agent) abortInflight() {
	a.mu.Lock()
	for _, inf := range a.inflight {
		inf.aborted.Store(true)
	}
	a.inflight = make(map[dispatchKey]*inflight)
	a.mu.Unlock()
}

var errClean = fmt.Errorf("agent: clean shutdown")

// drain waits for in-flight executions to finish before a clean exit.
func (a *Agent) drain() {
	for {
		a.mu.Lock()
		n := len(a.inflight)
		a.mu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func (a *Agent) resolveJob(jobID int64) *localrt.Runtime {
	a.mu.Lock()
	defer a.mu.Unlock()
	if js := a.jobs[jobID]; js != nil {
		return js.rt
	}
	return nil
}

// handlePrepare answers a Prepare only when it failed: the master acts on a
// JobReady only when it carries an error, and the connection's FIFO already
// orders every Dispatch behind the plan it needs.
func (a *Agent) handlePrepare(p wire.Prepare) {
	if err := a.prepare(p); err != nil {
		a.logf("agent %d: prepare job %d (%s): %v", a.id, p.JobID, p.Workload, err)
		a.conn.Load().Send(wire.JobReady{JobID: p.JobID, Err: err.Error()})
		return
	}
	a.logf("agent %d: prepared job %d (%s)", a.id, p.JobID, p.Workload)
}

// prepare rebuilds the job's plan from the workload registry and seeds its
// deterministic inputs — the cross-process identity contract: same builder,
// same params, same IDs, so nothing but (name, params) crosses the wire.
// Idempotent: a takeover master re-broadcasts Prepare for every live job,
// and the existing runtime (plan, contributions, spill) must survive it.
func (a *Agent) prepare(p wire.Prepare) error {
	a.mu.Lock()
	_, dup := a.jobs[p.JobID]
	a.mu.Unlock()
	if dup {
		return nil
	}
	bj, err := workload.Build(p.Workload, p.Params)
	if err != nil {
		return err
	}
	rt := localrt.New(bj.Plan)
	// Encode-once: every committed contribution is serialized at commit time
	// and served as cached bytes from then on.
	rt.SetCodec(workload.Codec{Compress: a.compress})
	if a.cfg.ShuffleMemBudget > 0 {
		rt.SetSpill(a.cfg.ShuffleMemBudget, a.cfg.ShuffleSpillDir)
	}
	for _, in := range bj.Inputs {
		rt.SetInput(in.Dataset, in.Rows)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.jobs[p.JobID] = &jobState{rt: rt, fetched: make(map[fetchKey]bool)}
	return nil
}

func (a *Agent) handleDispatch(d wire.Dispatch) {
	a.mu.Lock()
	js := a.jobs[d.JobID]
	key := dispatchKey{d.JobID, d.MTID}
	inf := &inflight{seq: d.Seq}
	a.inflight[key] = inf
	a.mu.Unlock()
	if js == nil {
		a.finish(key, inf, wire.Complete{
			JobID: d.JobID, MTID: d.MTID, Seq: d.Seq,
			Err: fmt.Sprintf("agent: dispatch for unprepared job %d", d.JobID),
		})
		return
	}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		a.execute(js, d, key, inf)
	}()
}

func (a *Agent) handleAbort(ab wire.Abort) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if inf := a.inflight[dispatchKey{ab.JobID, ab.MTID}]; inf != nil && inf.seq == ab.Seq {
		inf.aborted.Store(true)
	}
}

// finish sends the completion (unless aborted) and retires the dispatch.
func (a *Agent) finish(key dispatchKey, inf *inflight, c wire.Complete) {
	a.mu.Lock()
	if cur := a.inflight[key]; cur == inf {
		delete(a.inflight, key)
	}
	a.mu.Unlock()
	if inf.aborted.Load() {
		return
	}
	a.conn.Load().Send(c)
}

// execute runs one dispatched monotask: pull the named input partitions
// into the local store, execute under the core bound, report the measured
// completion. Seconds covers fetch + execution (the work the dispatch
// caused), excluding time queued on the local core semaphore.
func (a *Agent) execute(js *jobState, d wire.Dispatch, key dispatchKey, inf *inflight) {
	comp := wire.Complete{JobID: d.JobID, MTID: d.MTID, Seq: d.Seq}
	plan := js.rt.Plan()
	if int(d.MTID) < 0 || int(d.MTID) >= len(plan.Monotasks) {
		comp.Err = fmt.Sprintf("agent: job %d has no monotask %d", d.JobID, d.MTID)
		a.finish(key, inf, comp)
		return
	}
	mt := plan.Monotasks[d.MTID]

	fetchStart := time.Now()
	wireBytes, rawBytes, retries, fallbacks, err := a.ensureInputs(js, d)
	fetchDur := time.Since(fetchStart)
	comp.FetchRetries = int32(retries)
	comp.FetchFallbacks = int32(fallbacks)
	if err != nil {
		comp.Err = err.Error()
		a.finish(key, inf, comp)
		return
	}

	select {
	case a.sem <- struct{}{}:
	case <-a.quit:
		return
	}
	var writes []localrt.RecordedWrite
	execStart := time.Now()
	if !inf.aborted.Load() {
		writes, err = js.rt.ExecRecord(mt)
		if d := a.cfg.ExecDelay; d > 0 {
			// Contention injection: the stall sits inside the timed section,
			// so the honestly-measured completion exposes the slow-down to
			// the master's rate monitors.
			time.Sleep(d)
		}
	}
	execDur := time.Since(execStart)
	<-a.sem

	if err != nil {
		comp.Err = err.Error()
		a.finish(key, inf, comp)
		return
	}
	comp.Seconds = (fetchDur + execDur).Seconds()
	if comp.Seconds < 1e-6 {
		// Floor at clock granularity so a trivial monotask cannot inject a
		// near-infinite rate sample (mirrors the in-process executor).
		comp.Seconds = 1e-6
	}
	comp.FetchedWireBytes = wireBytes
	comp.FetchedRawBytes = rawBytes
	// Encode-once: the commit above already serialized every write into the
	// contribution store, so the completion ships those exact cached bytes —
	// no second marshal, and the master checkpoints byte-identical blobs.
	for _, w := range writes {
		blob, flags, rawLen, err := js.rt.ContribBlob(w.Dataset, w.Part, int(d.MTID))
		if err != nil {
			comp.Err = err.Error()
			comp.Writes = nil
			break
		}
		comp.Writes = append(comp.Writes, wire.PartWrite{
			DatasetID: int32(w.Dataset.ID), Part: int32(w.Part),
			Flags: flags, RawLen: uint32(rawLen), Rows: blob,
		})
	}
	// Memory high-water proxy for the master's reservation corrector: the
	// larger of the raw bytes this monotask materialized as input and the
	// raw bytes it produced. The master sums these per job into an
	// aggregate-working-set estimate it compares against the admission
	// reservation.
	var outRaw float64
	for _, w := range comp.Writes {
		outRaw += float64(w.RawLen)
	}
	comp.MemPeak = rawBytes
	if outRaw > comp.MemPeak {
		comp.MemPeak = outRaw
	}
	a.finish(key, inf, comp)
}

// ensureInputs pulls every partition the dispatch names into the local
// contribution store. Fetches are cached per (dataset, part, origin) —
// contribution sets are final before any reader dispatches (the dag orders
// readers after their producers' completions), so a cached fetch can never
// be stale. Transient peer faults are absorbed inside Client.Fetch by
// retry/backoff; only once that budget is exhausted does the fetch degrade
// to the master's canonical store (§4.3), and each such degradation is
// counted so the master's transport metrics surface it.
func (a *Agent) ensureInputs(js *jobState, d wire.Dispatch) (wireBytes, rawBytes float64, retries, fallbacks int, err error) {
	masterStore := a.masterAddr()
	for _, f := range d.Fetches {
		js.mu.Lock()
		seen := js.fetched[fetchKey{f.DatasetID, f.Part, f.Origin}]
		js.mu.Unlock()
		if seen {
			continue
		}
		ds := js.rt.DatasetByID(int(f.DatasetID))
		if ds == nil {
			return wireBytes, rawBytes, retries, fallbacks, fmt.Errorf("agent: dispatch names unknown dataset %d", f.DatasetID)
		}
		// The sink copies each fetched blob out of the client's pooled frame
		// and hands ownership to the contribution store as-is — still
		// encoded, still compressed if it came that way. Decoding happens
		// lazily at the store's single consumption site (gather), so a
		// partition fetched for one monotask but consumed by none is never
		// deserialized at all.
		sink := func(resp *wire.FetchResp) error {
			for i := range resp.Contribs {
				pc := &resp.Contribs[i]
				js.rt.InsertEncoded(ds, int(f.Part), int(pc.MTID),
					append([]byte(nil), pc.Rows...), pc.Flags, int(pc.RawLen))
			}
			return nil
		}
		n, nr, r, err := a.client(f.Addr).FetchFunc(d.JobID, f.DatasetID, f.Part, f.Origin, sink)
		retries += r
		if err != nil && f.Origin >= 0 && masterStore != "" {
			// Peer unreachable after the full retry budget: the master's
			// checkpoint has every committed contribution (§4.3), so degrade
			// to it — correct but no longer peer-to-peer, hence counted.
			fallbacks++
			a.logf("agent %d: fetch ds%d/p%d from w%d failed (%v), falling back to master",
				a.id, f.DatasetID, f.Part, f.Origin, err)
			n, nr, r, err = a.client(masterStore).FetchFunc(d.JobID, f.DatasetID, f.Part, -1, sink)
			retries += r
		}
		if err != nil {
			return wireBytes, rawBytes, retries, fallbacks, err
		}
		wireBytes += n
		rawBytes += nr
		js.mu.Lock()
		js.fetched[fetchKey{f.DatasetID, f.Part, f.Origin}] = true
		js.mu.Unlock()
	}
	return wireBytes, rawBytes, retries, fallbacks, nil
}

func (a *Agent) client(addr string) *shuffle.Client {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.clients[addr]
	if c == nil {
		c = shuffle.NewClient(addr, shuffle.ClientConfig{
			Dial:        a.cfg.ShuffleDial,
			ReadTimeout: a.cfg.FetchTimeout,
			Retries:     a.cfg.FetchRetries,
			BackoffBase: a.cfg.FetchBackoff,
			BackoffMax:  a.cfg.FetchBackoffMax,
		})
		a.clients[addr] = c
	}
	return c
}
