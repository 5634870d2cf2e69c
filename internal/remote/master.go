// Package remote is the master side of the distributed data plane: the live
// scheduling core (internal/live) with its execution back-end replaced by a
// RemoteExecutor that ships placed tasks to worker agent processes over
// TCP, each agent running the task's monotasks in its own per-resource
// queues (§4.2.3, mtqueue.Runner, the code the in-process executor runs).
// The control plane above the Backend seam — admission under the memory
// reservation, Algorithm-1 placement — is byte-for-byte the code the
// simulator runs; only the clock (wall) and the executor (sockets) differ. Worker liveness is heartbeat-based: a
// worker missing 3 consecutive heartbeats is failed through the core's §4.3
// recovery path (abort in-flight, reset for retry, re-place), with the
// master's canonical contribution store standing in for dead shuffle
// origins.
package remote

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ursa/internal/cluster"
	"ursa/internal/core"
	"ursa/internal/cpstate"
	"ursa/internal/elastic"
	"ursa/internal/eventloop"
	"ursa/internal/journal"
	"ursa/internal/live"
	"ursa/internal/localrt"
	"ursa/internal/metrics"
	"ursa/internal/remote/shuffle"
	"ursa/internal/remote/workload"
	"ursa/internal/resource"
	"ursa/internal/wire"
)

// Config shapes a master.
type Config struct {
	// Addr is the control-plane listen address, the master's one address:
	// agents register, clients submit and fallback fetches read the
	// canonical store there. Default "127.0.0.1:0".
	Addr string
	// Workers is how many agents must register before the run starts.
	Workers int
	// CoresPerWorker is each worker's CPU concurrency in the scheduler's
	// accounting. Default 2.
	CoresPerWorker int
	// MemPerWorker is each worker's admission-capacity in scheduler units;
	// 0 means effectively unbounded.
	MemPerWorker float64
	// HeartbeatInterval paces agent heartbeats; a worker silent for
	// HeartbeatMisses intervals is declared dead. Defaults: 100ms, 3.
	HeartbeatInterval time.Duration
	HeartbeatMisses   int
	// StatsInterval logs the master's four stats lines — transport, ingest,
	// journal, elastic — at this period; 0 disables.
	StatsInterval time.Duration
	// ShuffleMemBudget bounds the in-memory bytes of each job's canonical
	// contribution store; beyond it, contributions spill to disk and are
	// served by streaming reads. <= 0 disables spilling.
	ShuffleMemBudget int64
	// ShuffleSpillDir is where spill files are created; empty selects the
	// system temp dir.
	ShuffleSpillDir string
	// Listen opens the control-plane listener; nil selects wire.NetListen.
	// No test sets it; it is the seam a simulated network plugs into.
	Listen wire.ListenFunc
	// Serve decides only when the drain that ends every run begins; every
	// master answers clients on its control port. A serving master takes
	// submissions until Drain. Off (the default), Run begins with the drain:
	// the held jobs (Submit's, a takeover's) run to completion, clients can
	// query but not submit, and Run returns after the last held job.
	Serve bool
	// JournalDir, when set, persists the control-plane event log there:
	// every state-machine event is appended (CRC-checked, fsync-batched),
	// snapshots are taken every SnapshotEvery events, and the lease file
	// arbitrates primary/standby. Empty disables journaling — identical
	// behavior, in-memory state machine only. NewMaster requires the
	// directory to be empty (a fresh generation); recovering an existing
	// journal is the standby's job (NewStandby + Takeover).
	JournalDir string
	// LeaseTTL is how long the primary's lease lasts between renewals
	// (renewed at TTL/3); a standby takes over only after observing an
	// expired lease. Default 2s. Journaled masters only.
	LeaseTTL time.Duration
	// SnapshotEvery is the journal's snapshot (and compaction) cadence in
	// events. Default 1024.
	SnapshotEvery int
	// MinWorkers and MaxWorkers bound the autoscaler's target cluster size.
	// Defaults: Workers and Workers (i.e. no movement until raised).
	MinWorkers int
	MaxWorkers int
	// AutoscaleInterval paces autoscaler policy ticks. Default 250ms.
	AutoscaleInterval time.Duration
	// Provisioner, when set, runs the utilization-driven autoscaler: every
	// AutoscaleInterval a policy tick samples admission pressure (queued
	// jobs, paused admission, reservation fraction, core utilization) and
	// either starts a worker through Provisioner or drains an idle one,
	// within [MinWorkers, MaxWorkers]. Provisioner starts one worker that
	// will register with the master (the loopback seam in tests, process
	// spawning under -autoscale); it may block, so it runs on a goroutine of
	// its own, and an error counts the start as failed.
	Provisioner func() error
	// ReserveCorrect enables DRESS-style dynamic reservation: per-workload
	// EWMA correction factors, learned from worker-reported memory
	// high-water marks of finished jobs, multiply the admission MemEstimate
	// at submit time.
	ReserveCorrect bool
	// Core configures the scheduling core (defaults as in live.Config).
	Core core.Config
	// Logf, if set, receives the master's log lines.
	Logf func(format string, args ...any)
}

// Transport and front-door bounds: one value serves every deployment, test
// and benchmark, so they are not Config fields. The frame bound, the write
// deadline, the graceful-close flush window and the shuffle server's idle
// cutoff are wire's and shuffle's own (wire.DefaultMaxFrame,
// wire.WriteDeadline, wire.DrainDeadline, shuffle.DefaultServerReadIdle).
const (
	// handshakeTimeout bounds the wait for a connecting peer's first frame: a
	// client that connects and goes silent cannot pin the handshake goroutine.
	handshakeTimeout = 5 * time.Second
	// journalSyncInterval batches journal fsyncs (group commit): an appended
	// event is durable within this long.
	journalSyncInterval = 2 * time.Millisecond
	// intakeCap bounds the submissions accepted but not yet queued on the
	// control loop; beyond it new SubmitJobs are rejected ("intake full")
	// instead of growing the driver inbox without bound.
	intakeCap = 1 << 16
	// clientSendQueue bounds each client connection's outbound frame queue
	// (acks and JobStatus updates). A slow status subscriber has this many
	// frames of buffer; further JobStatus frames are dropped and counted
	// (Ingest.StatusDrops) rather than buffered or fatal.
	clientSendQueue = 256
)

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.CoresPerWorker <= 0 {
		c.CoresPerWorker = 2
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 3
	}
	if c.Listen == nil {
		c.Listen = wire.NetListen
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 2 * time.Second
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 1024
	}
	if c.AutoscaleInterval <= 0 {
		c.AutoscaleInterval = 250 * time.Millisecond
	}
	return c
}

// workerLink is one row of the master's connection table: a worker with an
// open control connection. Its lifecycle (failed, draining, drained) and
// shuffle address are the control-plane state's (State.Workers[id], read
// through recorder.worker); recording WorkerFailed/Draining/Drained is what
// changes them. A row is written once per registration (at once for a claim,
// which comes before Run; by the loop step for a new slot) and dropped when
// the connection closes for good: on failure and when a drain completes. A
// slot without a row never registered, is gone, or — on a takeover master —
// has not re-attached.
type workerLink struct {
	id   int
	conn *wire.Conn
	// lastBeat is the wall time (Unix nanoseconds) of the worker's last
	// heartbeat, stamped by its read loop and, before the first one arrives,
	// the row's creation: worker liveness is the row's own.
	lastBeat atomic.Int64
	// drainPending: the core reported the draining worker idle, but in-flight
	// dispatches elsewhere still hold fetch references on it — the drain
	// completes when the last reference drops (maybeFinishDrain).
	drainPending bool
}

// newLink opens slot id's connection row, its heartbeat clock started at now.
func newLink(id int, conn *wire.Conn, now time.Time) *workerLink {
	l := &workerLink{id: id, conn: conn}
	l.lastBeat.Store(now.UnixNano())
	return l
}

// silence is how long the row has gone without a heartbeat at now.
func (l *workerLink) silence(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, l.lastBeat.Load()))
}

// overdue is the liveness sweep's predicate: row l has been silent for more
// than misses heartbeat intervals, counted from its creation until the first
// heartbeat arrives. A dropped row (nil) is never swept.
func overdue(l *workerLink, now time.Time, interval time.Duration, misses int) bool {
	return l != nil && l.silence(now) > time.Duration(misses)*interval
}

// What the master may send a worker is answered from the connection table
// and the journaled lifecycle together. The drain lifecycle is draining →
// drained: a draining worker takes no new dispatches but finishes its
// in-flight monotasks and still serves shuffle fetches peer-to-peer (the
// routing question, cpstate.WorkerState.ServesPeers, needs no connection); a
// drained worker is gone — its partitions route to the master's canonical
// store and its connection is closed.

// dispatchable: the worker takes new monotasks.
func dispatchable(l *workerLink, w cpstate.WorkerState) bool { return l != nil && w.Live() }

// attached: the worker is a member that may hold job plans — this
// generation's or, on a takeover, the previous one's — possibly draining and
// still flushing completions: it gets JobDone and Shutdown.
func attached(l *workerLink, w cpstate.WorkerState) bool { return l != nil && w.ServesPeers() }

// Master runs the scheduling core over a cluster of worker agents.
type Master struct {
	Sys *live.System
	// Transport counts the data plane per worker: dispatches, completions,
	// RTT, shuffle bytes, fetch degradation. Its line reads membership and
	// heartbeat ages from the connection table and the state (liveness).
	Transport *metrics.Transport
	// Journal counts what only journaling observes — replays, duplicate
	// commits, precommits, re-attaches, not-found reads; its line reads
	// generation, events, appends, snapshots and errors from the recorder.
	Journal *metrics.Journal

	cfg  Config
	ln   net.Listener
	exec *remoteExecutor
	fd   *frontDoor

	// store answers fetches from the canonical stores on the control port:
	// handshake hands it every connection whose first frame is a Fetch.
	store *shuffle.Server

	// gen is this master's generation: 1 for a fresh master, previous+1 at
	// a standby takeover. Immutable after construction.
	gen int64
	// rec is the control-plane state machine's write path (always active;
	// journaling optional within). takeover is non-nil on a promoted
	// standby.
	rec      *recorder
	jnl      *journal.Journal
	takeover *takeoverState

	// corrector is the DRESS reservation corrector (nil unless
	// Config.ReserveCorrect): observations land on the control loop at job
	// finish, factors are read at submit time from front-door goroutines.
	corrector *elastic.ReserveCorrector
	// scaler is the autoscaler (nil unless Config.Provisioner), ticked on the
	// control loop by Run.
	scaler *elastic.Controller
	// migrated counts the partitions whose fetch routing drains moved to
	// the canonical store. Loop-owned.
	migrated int
	// silenced counts the frames send dropped because the recorder was fenced.
	silenced atomic.Int64

	needed int           // claims that close ready
	ready  chan struct{} // closed when `needed` slots are claimed

	leaseStop chan struct{}
	leaseWG   sync.WaitGroup

	// jobs is the one job table: batch, inherited and front-door jobs alike.
	jobs *jobTable

	// mu guards workers against Close and the handshake goroutines; the
	// control loop, the only writer once Run has started, reads it bare.
	// Claims fill rows before Run; a new slot's row is appended by its loop
	// step, so a slot handed out may not have a row yet. Until then the row
	// waits in joining (forever, if the loop has stopped), where Close finds
	// it: Close cuts every connection the handshake accepted.
	mu      sync.Mutex
	workers []*workerLink
	joining []*workerLink
	nreg    int // claimed slots
	next    int // the ID the next new slot gets
	started bool
	// ended is set as the run's Shutdown goes out (remoteExecutor.Close): an
	// agent that registers later is welcomed and shut down at once, so it
	// exits as the run's own agents do.
	ended bool
	// held lists, in submission order, the jobs whose handles a caller holds:
	// Master.Submit's and a takeover's inherited backlog. Their rows enter the
	// table only once the loop runs.
	held []*RemoteJob

	closeOnce sync.Once
}

// takeoverState carries a promoted standby's inheritance into newMaster:
// the replayed control-plane state, the open journal, and the standby's
// already-bound listener (workers were told to re-dial its address, so the
// master adopts it instead of opening its own).
type takeoverState struct {
	st  *cpstate.State
	jnl *journal.Journal
	ln  net.Listener
}

// NewMaster listens for agents and assembles the scheduling core. Submit
// jobs, then Run — Run blocks until all Workers agents have registered.
func NewMaster(cfg Config) (*Master, error) {
	return newMaster(cfg, nil)
}

func newMaster(cfg Config, tk *takeoverState) (*Master, error) {
	cfg = cfg.withDefaults()
	if tk != nil {
		// The registry size is inherited: worker IDs must keep meaning what
		// they meant to the previous generation.
		cfg.Workers = len(tk.st.Workers)
	}
	if cfg.Workers <= 0 {
		return nil, errors.New("remote: Config.Workers must be positive")
	}
	// The autoscaler's size band defaults to the initial cluster size, and
	// is resolved here (not withDefaults) because a takeover just rewrote
	// cfg.Workers from the inherited registry.
	if cfg.MinWorkers <= 0 {
		cfg.MinWorkers = cfg.Workers
	}
	if cfg.MaxWorkers < cfg.MinWorkers {
		cfg.MaxWorkers = cfg.MinWorkers
	}
	m := &Master{
		cfg:      cfg,
		ready:    make(chan struct{}),
		workers:  make([]*workerLink, cfg.Workers),
		next:     cfg.Workers,
		takeover: tk,
	}
	m.Transport = metrics.NewTransport(m.liveness)
	if cfg.ReserveCorrect {
		m.corrector = elastic.NewReserveCorrector()
	}
	if prov := cfg.Provisioner; prov != nil {
		m.scaler = &elastic.Controller{
			Policy: elastic.NewUtilizationPolicy(cfg.MinWorkers, cfg.MaxWorkers),
			Drain:  m.drainOneIdle,
			Logf:   cfg.Logf,
		}
		m.scaler.Start = func() {
			go func() {
				if err := prov(); err != nil {
					m.scaler.Failed(err)
				}
			}()
		}
	}

	// Generation and state machine. A fresh master is generation 1 on an
	// empty state; a promoted standby inherits the replayed state and an
	// open journal, and bumps the generation. Either way the Generation
	// event goes through the recorder first, so the journal's first record
	// of this incarnation marks whose authority the tail belongs to.
	st := cpstate.New()
	if tk != nil {
		st, m.jnl = tk.st, tk.jnl
	} else if cfg.JournalDir != "" {
		jnl, rep, err := journal.Open(cfg.JournalDir, journal.Options{SyncInterval: journalSyncInterval})
		if err != nil {
			return nil, err
		}
		if rep.NextIndex > 0 || rep.Snapshot != nil {
			jnl.Close()
			return nil, fmt.Errorf(
				"remote: journal dir %s is not empty; recover it with a standby takeover (-standby), not a fresh master",
				cfg.JournalDir)
		}
		m.jnl = jnl
	}
	m.gen = st.Gen + 1
	m.jobs = newJobTable(st.MaxJobID())
	m.rec = newRecorder(st, m.jnl, cfg.SnapshotEvery, m.logf)
	m.Journal = metrics.NewJournal(m.rec.owned)
	m.rec.record(cpstate.Generation{Gen: m.gen})

	m.needed = cfg.Workers
	if tk != nil {
		m.needed = 0
		for _, w := range tk.st.Workers {
			if w.Live() {
				m.needed++
			}
		}
		if m.needed == 0 {
			close(m.ready) // every inherited slot is gone; don't wait on registrations
		}
	}

	if tk != nil {
		m.ln = tk.ln
	} else {
		ln, err := cfg.Listen(cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("remote: listen %s: %w", cfg.Addr, err)
		}
		m.ln = ln
	}
	m.store = shuffle.NewServer(shuffle.ServerConfig{}, m.resolveJob, m.Transport.ObserveServedBytes)
	m.Sys = live.NewSystem(live.Config{
		Workers:        cfg.Workers,
		CoresPerWorker: cfg.CoresPerWorker,
		MemPerWorker:   cfg.MemPerWorker,
		Core:           cfg.Core,
		NewBackend: func(*live.System) live.Backend {
			m.exec = newRemoteExecutor(m)
			return m.exec
		},
	})
	m.fd = newFrontDoor(m)
	m.Sys.Core.OnJobStateChange = m.onJobState
	// The core fires this once per drain, on the control loop, the moment
	// the draining worker's last in-flight monotask commits (possibly
	// synchronously inside BeginDrain when it is already idle).
	m.Sys.Core.OnWorkerDrained = m.finishDrain

	if m.jnl != nil {
		m.startLease()
	}
	if tk == nil {
		// A promoted standby keeps its own accept loop (it owns the bound
		// listener and already routes connections here).
		go m.accept()
	}
	return m, nil
}

// startLease claims the lease for this generation and renews it at TTL/3
// until Close — the heartbeat a standby watches for.
func (m *Master) startLease() {
	m.leaseStop = make(chan struct{})
	renew := func() {
		journal.WriteLease(m.cfg.JournalDir, journal.Lease{
			Gen: m.gen, Holder: m.Addr(), Expiry: time.Now().Add(m.cfg.LeaseTTL),
		})
	}
	renew()
	m.leaseWG.Add(1)
	go func() {
		defer m.leaseWG.Done()
		t := time.NewTicker(m.cfg.LeaseTTL / 3)
		defer t.Stop()
		for {
			select {
			case <-m.leaseStop:
				return
			case <-t.C:
				renew()
			}
		}
	}()
}

// onJobState is the core's job-state hook (control loop): record the
// lifecycle event — which is the phase change — and stream it to the
// submitting client, if there is one. A job's first (queued) notification
// precedes its row and is recorded by whoever creates the row.
func (m *Master) onJobState(j *core.Job) {
	rj := m.jobs.of(j)
	if rj == nil {
		return
	}
	switch j.State {
	case core.JobAdmitted:
		m.rec.record(cpstate.JobAdmitted{JobID: rj.id, Reserved: j.ReservedMem()})
		m.fd.sendStatus(rj, wire.StateAdmitted, "")
	case core.JobFinished:
		if m.corrector != nil {
			if js, ok := m.rec.job(rj.id); ok {
				m.corrector.Observe(js.Workload, rj.Built.Spec.MemEstimate, rj.memFactor, rj.memPeak)
			}
		}
		m.rec.record(cpstate.JobFinished{JobID: rj.id})
		m.fd.sendStatus(rj, wire.StateFinished,
			fmt.Sprintf("jct=%.3fs", float64(j.Finished-j.Submitted)/1e6))
		m.broadcast(wire.JobDone{JobID: rj.id}, attached)
		m.release(rj)
		m.fd.maybeFinishDrain()
	case core.JobCancelled:
		// Never admitted, so never dispatched to an agent: no JobDone.
		m.rec.record(cpstate.JobCancelled{JobID: rj.id})
		m.fd.sendStatus(rj, wire.StateCancelled, "cancelled")
		m.release(rj)
	}
}

// release lets a terminal job go. Nobody holds a front-door job's handle:
// with the agents told to forget it, the row goes and its canonical store
// with it (resolveJob then answers not-found); the control-plane state keeps
// the job's identity and phase for JobQuery. A held job (no client) stays
// until Close.
func (m *Master) release(rj *RemoteJob) {
	if rj.client != nil {
		m.jobs.remove(rj)
		rj.rt().Close()
	}
}

// Generation returns the master's generation (1 unless promoted from a
// standby).
func (m *Master) Generation() int64 { return m.gen }

// StateBytes returns the canonical encoding of the control-plane state —
// the bytes a journal replay must reproduce exactly.
func (m *Master) StateBytes() (b []byte) {
	m.rec.read(func(st *cpstate.State) { b = st.AppendEncoded(nil) })
	return b
}

// CommitCount returns how many committed monotasks the control-plane state
// currently holds, summed over its task commits (terminal jobs compact
// theirs away).
func (m *Master) CommitCount() (n int) {
	m.rec.read(func(st *cpstate.State) {
		for _, mts := range st.Commits {
			n += len(mts)
		}
	})
	return n
}

// Ingest exposes the front-door counters.
func (m *Master) Ingest() *metrics.Ingest { return m.fd.Ingest }

// Drain begins the end of the run, the one way every run ends: new
// submissions are rejected, queued front-door jobs are cancelled with a
// terminal JobStatus, and once the admitted and held jobs have finished the
// control loop stops and Run returns. Safe from any goroutine; idempotent.
func (m *Master) Drain() { m.fd.drain() }

// Addr is the master's one address: agents, clients and fallback fetches
// all dial it.
func (m *Master) Addr() string { return m.ln.Addr().String() }

// Jobs returns the jobs submitted through Submit (on a promoted standby:
// the inherited backlog) in submission order.
func (m *Master) Jobs() []*RemoteJob {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.held)
}

func (m *Master) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// resolveJob is the shuffle server's job lookup.
func (m *Master) resolveJob(jobID int64) *localrt.Runtime {
	if rj := m.jobs.get(jobID); rj != nil {
		return rj.rt()
	}
	return nil
}

// Submit describes the named workload locally (its plan and input sizes; a
// generated input is made only by the agents' monotasks that read it),
// records the submission, and hands the job to the scheduler. Both sides run
// the same deterministic builder, so every dataset and monotask ID the wire
// protocol carries agrees by construction. Submit must precede Run.
func (m *Master) Submit(name string, params []byte) (*RemoteJob, error) {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return nil, errors.New("remote: Submit after Run")
	}
	m.mu.Unlock()
	bj, err := workload.Describe(name, params)
	if err != nil {
		return nil, err
	}
	rj := m.newRow(name, bj)
	rj.id = m.jobs.mint()
	m.rec.record(cpstate.JobSubmitted{
		JobID: rj.id, Tenant: bj.Spec.Tenant, Workload: name, Params: params,
	})
	m.hold(rj)
	return rj, nil
}

// hold submits a job whose handle the caller keeps and lists it for Jobs.
func (m *Master) hold(rj *RemoteJob) *live.Job {
	m.mu.Lock()
	m.held = append(m.held, rj)
	m.mu.Unlock()
	return m.submit(rj, nil)
}

// submit is every source's way to the scheduler: it hands the row's built
// job to live.System.Submit and returns its handle. On the loop the row gets
// its scheduler job and enters the job table as the job is queued, before
// any admission hook can look it up; bind, if set, then does the source's
// own bookkeeping.
func (m *Master) submit(rj *RemoteJob, bind func()) *live.Job {
	return m.Sys.Submit(live.Submission{
		Spec: rj.Built.Spec, Plan: rj.Built.Plan, Inputs: rj.Built.Inputs,
		OnQueued: func(j *live.Job) {
			rj.Live = j
			m.jobs.add(rj)
			if bind != nil {
				bind()
			}
		},
	})
}

// accept hands every inbound connection to handshake until the listener
// closes.
func (m *Master) accept() {
	for {
		nc, err := m.ln.Accept()
		if err != nil {
			return
		}
		go m.handshake(nc)
	}
}

// handshake classifies one inbound connection by its first frame — Register
// opens a worker link, any client frame a client link, a Fetch goes to the
// canonical store's server — and only then wraps it, because the kinds want
// different handling (pooled reads for workers; a shallow, droppable status
// queue for clients; streamed raw frames for fetches). The sniff reads
// through the same bufio.Reader the link adopts, so frames the peer
// pipelined behind the first are kept.
func (m *Master) handshake(nc net.Conn) {
	br := bufio.NewReader(nc)
	// Bounded first read: a connection that never identifies itself is cut
	// loose instead of pinning this goroutine forever.
	nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	typ, payload, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
	if err != nil {
		nc.Close()
		return
	}
	first, err := wire.Decode(typ, payload)
	if err != nil {
		nc.Close()
		return
	}
	nc.SetReadDeadline(time.Time{})
	switch msg := first.(type) {
	case wire.Register:
		m.registerWorker(nc, br, msg)
	case wire.SubmitJob, wire.CancelJob, wire.JobQuery:
		m.fd.serveClient(wire.NewConnFrom(nc, br, wire.Config{SendQueue: clientSendQueue}), first)
	case wire.Fetch:
		m.store.ServeConn(nc, br, &msg)
	default:
		nc.Close()
	}
}

// registerWorker is the one way into the registry. A registration claims a
// slot the master waits for — a fresh master's next of its first Workers
// slots, or, on a takeover, the inherited slot it names if the replayed state
// holds that slot live and unclaimed — or appends a new slot past every slot
// handed out: an extra agent before Run, a fresh agent at a takeover and a
// late re-attach all get a new ID. Holding m.mu, it records WorkerRegistered,
// queues the Welcome and posts its loop step (admit), so the steps queue in
// slot order and a claim's is queued before ready can close; its read loop
// starts last. Only a master that Close has fenced turns an agent away.
func (m *Master) registerWorker(nc net.Conn, br *bufio.Reader, reg wire.Register) {
	c := wire.NewConnFrom(nc, br, wire.Config{
		// Pooled frames: the readLoop's only blob-carrying message is
		// TaskDone, whose writes are deep-copied before leaving the handler.
		PooledReads: true,
	})
	m.mu.Lock()
	id, claimed := m.claim(reg)
	if !m.rec.record(cpstate.WorkerRegistered{
		Worker: int32(id), ShuffleAddr: reg.ShuffleAddr, Cores: reg.Cores,
	}) {
		m.mu.Unlock()
		c.Close()
		return
	}
	link := newLink(id, c, time.Now())
	if claimed {
		m.workers[id] = link
		m.nreg++
	} else {
		m.joining = append(m.joining, link)
	}
	m.send(c, m.welcome(id))
	if m.ended {
		m.send(c, wire.Shutdown{})
		c.CloseGraceful()
	}
	m.Sys.Drv.Send(func() { m.admit(link, reg, claimed) })
	if claimed && m.nreg == m.needed {
		close(m.ready)
	}
	m.mu.Unlock()

	reattach := claimed && m.takeover != nil
	if reattach {
		m.Journal.ObserveReattach()
	}
	m.logf("master: worker %d registered from %v (cores=%d shuffle=%s gen=%d reattach=%v)",
		id, nc.RemoteAddr(), reg.Cores, reg.ShuffleAddr, m.gen, reattach)
	go m.readLoop(link)
}

// claim returns the slot a registration takes and whether it claims one the
// master waits for; otherwise it hands out the next new slot. Under m.mu.
// Claims end when Run starts, before the control loop reads the table.
func (m *Master) claim(reg wire.Register) (id int, claimed bool) {
	if !m.started {
		if m.takeover == nil && m.nreg < m.needed {
			return m.nreg, true
		}
		if id := int(reg.WorkerID); m.takeover != nil && id >= 0 && id < len(m.workers) &&
			m.workers[id] == nil && m.rec.worker(id).Live() {
			return id, true
		}
	}
	m.next++
	return m.next - 1, false
}

// welcome is the master's answer to a registration it accepted as worker id.
func (m *Master) welcome(id int) wire.Welcome {
	cfg := m.Sys.Core.Cfg
	return wire.Welcome{
		WorkerID:           int32(id),
		HeartbeatMicros:    m.cfg.HeartbeatInterval.Microseconds(),
		Gen:                m.gen,
		NetConcurrency:     int32(cfg.NetConcurrency),
		SmallMonotaskBytes: cfg.SmallMonotaskBytes,
	}
}

// regProfile maps a registration's advertised hardware onto a machine
// profile for the scheduling core, zero (the uniform CoresPerWorker
// accounting) for an agent that does not profile itself: its Cores field is
// its executor parallelism, which does not override the master's accounting.
// The journal does not record profiles: every registration re-advertises one.
func regProfile(reg wire.Register) cluster.MachineProfile {
	if !reg.HasProfile() {
		return cluster.MachineProfile{}
	}
	return cluster.MachineProfile{
		Cores:         int(reg.Cores),
		Mem:           resource.Bytes(reg.MemBytes),
		CoreRate:      resource.BytesPerSec(reg.CoreRate),
		NetBandwidth:  resource.BytesPerSec(reg.NetBandwidth),
		DiskBandwidth: resource.BytesPerSec(reg.DiskBandwidth),
	}
}

// admit is a registration's loop step: it makes the slot schedulable. A
// claimed slot's core worker exists and is idle — claims end before Run, so
// their steps run in the loop's first batch, before any placement pass — and
// takes the advertised profile. A new slot gets its core worker, built on the
// profile so the admission pass inside sees true capacities, and then its
// connection row, which leaves joining: the row and the core worker appear in
// the same loop turn. The worker holds no job yet; each job's first dispatch
// to it prepares it (remoteExecutor.Start).
func (m *Master) admit(link *workerLink, reg wire.Register, claimed bool) {
	if !claimed {
		m.Sys.Core.AddWorkerProfile(regProfile(reg))
		m.mu.Lock()
		m.workers = append(m.workers, link)
		m.joining = slices.DeleteFunc(m.joining, func(l *workerLink) bool { return l == link })
		m.mu.Unlock()
	} else if reg.HasProfile() {
		m.Sys.Core.SetWorkerProfile(link.id, regProfile(reg))
	}
}

// DrainWorker begins a graceful drain of one worker: dispatch to it stops,
// its in-flight monotasks run to completion, its committed partitions'
// fetch routing migrates to the master's canonical store, and only then is
// it deregistered and told to exit (DrainDone). Safe from any goroutine;
// no-op on unknown, failed, or already-draining workers.
func (m *Master) DrainWorker(id int, reason string) {
	m.Sys.Drv.Send(func() { m.beginDrain(id, reason) })
}

// link returns slot id's connection row, nil without one. Loop-owned.
func (m *Master) link(id int) *workerLink {
	if id < 0 || id >= len(m.workers) {
		return nil
	}
	return m.workers[id]
}

// worker returns slot id's connection row and journaled lifecycle — the two
// arguments of dispatchable and attached. Loop-owned.
func (m *Master) worker(id int) (*workerLink, cpstate.WorkerState) {
	return m.link(id), m.rec.worker(id)
}

// dropLink removes a closed connection's row. Loop-owned.
func (m *Master) dropLink(id int) {
	m.mu.Lock()
	m.workers[id] = nil
	m.mu.Unlock()
}

// broadcast sends msg to every worker that to accepts. Loop-owned.
func (m *Master) broadcast(msg wire.Msg, to func(*workerLink, cpstate.WorkerState) bool) {
	for id := range m.workers {
		if l, w := m.worker(id); to(l, w) {
			m.send(l.conn, msg)
		}
	}
}

// send is the one way a frame leaves the master, to an agent or a client.
// From the fence on it drops and counts every frame (DESIGN §13). A JobStatus
// that does not fit its client's queue is dropped and counted too; any other
// frame that does not fit fails the link.
func (m *Master) send(c *wire.Conn, msg wire.Msg) bool {
	if m.rec.fenced.Load() {
		m.silenced.Add(1)
		return false
	}
	if _, status := msg.(wire.JobStatus); !status {
		return c.Send(msg)
	}
	if !c.TrySend(msg) {
		m.fd.Ingest.ObserveStatusDrop(1)
		return false
	}
	return true
}

// beginDrain is the loop-side drain entry point.
func (m *Master) beginDrain(id int, reason string) {
	link, w := m.worker(id)
	if !dispatchable(link, w) {
		return
	}
	m.rec.record(cpstate.WorkerDraining{Worker: int32(id)})
	m.logf("master: draining worker %d (%s)", id, reason)
	m.send(link.conn, wire.DrainWorker{WorkerID: int32(id), Reason: reason})
	// Last: the core excludes the worker from placement and admission
	// capacity, and fires OnWorkerDrained (finishDrain) once its in-flight
	// monotasks have all committed — synchronously right here if it is
	// already idle.
	m.Sys.Core.BeginDrain(id)
}

// finishDrain marks a draining worker ready to complete once the core
// reports it empty (no in-flight monotasks of its own). Loop-owned. The
// drain actually completes in maybeFinishDrain, which additionally waits
// for every in-flight dispatch that names this worker as a fetch origin to
// settle — only then is it provable that no peer will pull from its
// shuffle server again.
func (m *Master) finishDrain(id int) {
	if link := m.link(id); link != nil {
		link.drainPending = true
		m.maybeFinishDrain(id)
	}
}

// maybeFinishDrain completes a pending drain once no in-flight dispatch
// still holds a fetch reference on the worker (remoteExecutor.fetchRefs).
// Loop-owned. The worker kept serving shuffle peers until this moment, when
// it provably has no consumers left, so no fetch ever falls back mid-flight.
func (m *Master) maybeFinishDrain(id int) {
	link := m.link(id)
	if link == nil || !link.drainPending || m.exec.fetchRefs[id] > 0 {
		return
	}
	// Fenced, the drain did not complete: the journal holds the worker as
	// draining, so its link stays for Close to cut with the others', and
	// its agent, told nothing, re-attaches to a successor.
	if !m.recordDrained(id) {
		return
	}
	m.dropLink(id)
	m.send(link.conn, wire.DrainDone{WorkerID: int32(id)})
	link.conn.CloseGraceful()
}

// recordDrained deregisters a worker whose drain is complete. Every
// contribution it ever committed is already checkpointed in the canonical
// store (commit inserts each one that leaves its task; one that never
// leaves it is never fetched), so migration is pure routing:
// once WorkerDrained is recorded, buildFetches serves its partitions from
// the master — no data moves. It reports whether the drain was recorded:
// false once the recorder is fenced. Loop-owned, or a takeover's recovery.
func (m *Master) recordDrained(id int) bool {
	parts := m.exec.migrateOrigins(id)
	if !m.rec.record(cpstate.WorkerDrained{Worker: int32(id)}) {
		return false
	}
	m.migrated += parts
	m.logf("master: worker %d drained (%d partitions rerouted to the canonical store)", id, parts)
	return true
}

// signals samples the autoscaler's view of the cluster: the scheduler's half
// from elastic.Sample, the membership from the connection table. Loop-owned.
func (m *Master) signals() elastic.Signals {
	s := elastic.Sample(m.Sys.Core)
	s.Joined = m.joined()
	s.Paused = m.paused()
	for id := range m.workers {
		switch l, w := m.worker(id); {
		case dispatchable(l, w):
			s.Live++
		case attached(l, w):
			s.Draining++
		}
	}
	return s
}

// drainOneIdle begins draining the highest-ID idle live worker — the
// autoscaler's scale-down callback. Loop-owned; false when every live
// worker still holds in-flight work.
func (m *Master) drainOneIdle() bool {
	for id := len(m.workers) - 1; id >= 0; id-- {
		if dispatchable(m.worker(id)) && m.Sys.Core.Workers[id].Idle() {
			m.beginDrain(id, "autoscaler scale-down")
			return true
		}
	}
	return false
}

// newRow wraps a job built for the named workload in a row, its admission
// estimate scaled by the workload's DRESS correction factor (1 when
// correction is off or nothing is learned yet).
func (m *Master) newRow(name string, bj *workload.BuiltJob) *RemoteJob {
	rj := &RemoteJob{Built: bj, memFactor: 1}
	if m.corrector != nil {
		rj.memFactor = m.corrector.Factor(name)
	}
	bj.Spec.MemEstimate *= rj.memFactor
	return rj
}

// readLoop is one worker's inbound control path. Heartbeats stamp the
// connection row's atomic clock directly; everything that touches scheduler
// state is relayed onto the control loop through the driver inbox.
func (m *Master) readLoop(link *workerLink) {
	err := link.conn.ReadLoop(func(msg wire.Msg) error {
		switch msg := msg.(type) {
		case wire.Heartbeat:
			link.lastBeat.Store(time.Now().UnixNano())
		case wire.TaskDone:
			// Pooled reads recycle the frame buffer on the connection's next
			// read, while handleTaskDone runs later on the control loop: the
			// write blobs must be copied out now. The copy is not overhead —
			// it becomes the canonical store's owned checkpoint blob, inserted
			// without further copying or re-encoding.
			for _, c := range msg.Records {
				for i := range c.Writes {
					c.Writes[i].Rows = append([]byte(nil), c.Writes[i].Rows...)
				}
			}
			m.Sys.Drv.Send(func() { m.exec.handleTaskDone(link.id, msg) })
		case wire.DrainWorker:
			// Worker-requested drain (the worker binary's SIGINT/SIGTERM):
			// same master-side state machine as an operator-initiated
			// DrainWorker.
			reason := msg.Reason
			if reason == "" {
				reason = "worker requested"
			}
			m.Sys.Drv.Send(func() { m.beginDrain(link.id, reason) })
		default:
			return fmt.Errorf("remote: unexpected %T from worker %d", msg, link.id)
		}
		return nil
	})
	m.Sys.Drv.Send(func() {
		m.failWorker(link.id, fmt.Errorf("remote: worker %d connection lost: %w", link.id, err))
	})
}

// failWorker declares one worker dead. Runs on the control loop: it records
// the failure (so future fetch specs route around the worker), closes and
// drops the connection, and hands the victim to the core's §4.3 recovery —
// abort hooks reclaim dispatch state, in-flight monotasks reset for retry,
// placement re-places them on surviving workers. Idempotence and the
// all-dead check read the dropped row, not the recorded event: after Close
// has fenced the recorder its cut connections must still end the run.
func (m *Master) failWorker(id int, cause error) {
	link := m.link(id)
	if link == nil {
		// Already failed — or drained, whose connection closing is the drain
		// protocol's normal epilogue, not a failure.
		return
	}
	m.dropLink(id)
	link.conn.Close()
	m.failSlot(id, cause)
}

// failSlot is every worker failure's common tail, for a slot with no
// connection row: a worker failWorker just cut, or an inherited slot whose
// agent never re-attached to a takeover (assemble). It records the failure,
// hands the slot to the core's §4.3 recovery and, with no live worker left,
// pauses admission or ends the run.
func (m *Master) failSlot(id int, cause error) {
	recorded := m.rec.record(cpstate.WorkerFailed{Worker: int32(id)})
	m.logf("master: worker %d failed: %v", id, cause)
	m.Sys.Core.FailWorker(id)
	switch {
	case m.connected():
	case recorded:
		// No live workers: admission pauses (jobs stay queued, visibly:
		// paused) until a join — from the autoscaler or an operator — brings
		// capacity back. The run's context bounds the wait.
		m.logf("master: no live workers remain; admission paused until a worker joins")
	default:
		// Close fenced the recorder and is cutting every link: no join can
		// follow, so the run ends.
		m.Sys.Fail(fmt.Errorf("remote: all workers dead (last: %w)", cause))
	}
}

// WaitWorkers blocks until every slot the master waits for is claimed (or
// ctx ends).
func (m *Master) WaitWorkers(ctx context.Context) error {
	select {
	case <-m.ready:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("remote: waiting for %d workers: %w", m.needed, ctx.Err())
	}
}

// assemble waits for the claims, then ends them: from here every
// registration takes a new slot. A fresh master waits for its Workers. A
// takeover waits for its inherited live slots to re-attach, for at most twice
// LeaseTTL: an agent alternating between two master addresses, its backoff
// capped at LeaseTTL or less (the agent default is 1 s, the lease's 2 s),
// tries this one at least that often. Each slot still empty lost its agent
// with the primary and is failed here, before the control loop runs (so
// failSlot may touch the core from this goroutine). A survivor that comes
// later registers into a new slot.
func (m *Master) assemble(ctx context.Context) error {
	var window time.Duration
	var expired <-chan time.Time
	if m.takeover != nil {
		window = 2 * m.cfg.LeaseTTL
		expired = time.After(window)
	}
	select {
	case <-m.ready:
	case <-expired:
	case <-ctx.Done():
		return fmt.Errorf("remote: waiting for %d workers: %w", m.needed, ctx.Err())
	}
	m.mu.Lock()
	m.started = true
	var absent []int
	if m.nreg < m.needed {
		for id, l := range m.workers {
			if l == nil && m.rec.worker(id).Live() {
				absent = append(absent, id)
			}
		}
		m.needed = m.nreg
		close(m.ready)
	}
	m.mu.Unlock()
	for _, id := range absent {
		m.failSlot(id, fmt.Errorf("no re-attach within %v of the takeover", window))
	}
	return nil
}

// Run waits for the cluster to assemble, arms the liveness and stats
// tickers, and drives the scheduling core until a drain completes (then it
// returns the journal's first error), the back-end fails or ctx ends. It must
// follow all Submits. Without Config.Serve, read only here, Run begins with
// the drain, whose closure queues behind the held jobs' crossings.
func (m *Master) Run(ctx context.Context) error {
	if err := m.assemble(ctx); err != nil {
		return err
	}

	loop := m.Sys.Drv.Loop()
	hb, misses := m.cfg.HeartbeatInterval, m.cfg.HeartbeatMisses
	stopLiveness := loop.Every(eventloop.Duration(hb/time.Microsecond), func() {
		now := time.Now()
		for id, l := range m.workers {
			if overdue(l, now, hb, misses) {
				m.failWorker(id, fmt.Errorf("remote: no heartbeat for %v (limit %v)",
					l.silence(now), time.Duration(misses)*hb))
			}
		}
	})
	defer stopLiveness()
	if m.cfg.StatsInterval > 0 {
		stopStats := loop.Every(eventloop.Duration(m.cfg.StatsInterval/time.Microsecond), func() {
			m.logf("master: %s", m.Transport.StatsLine(time.Now()))
			// Sample tenant fairness on the loop, where the scheduler's share
			// accounting is consistent.
			m.fd.Ingest.ObserveShareError(core.ShareError(m.Sys.Core.Sched.TenantShares()))
			m.logf("master: %s", m.fd.Ingest.StatsLine())
			m.logf("master: %s", m.Journal.StatsLine())
			m.logf("master: %s", m.elasticLine())
		})
		defer stopStats()
	}
	if m.scaler != nil {
		stopScale := loop.Every(eventloop.Duration(m.cfg.AutoscaleInterval/time.Microsecond), func() {
			m.scaler.Tick(m.signals())
		})
		defer stopScale()
	}
	if !m.cfg.Serve {
		m.Drain()
	}
	if err := m.Sys.Run(ctx); err != nil {
		return err
	}
	return m.rec.Err()
}

// Close releases the master's listeners and connections. Idempotent; called
// after Run (the RemoteExecutor's Close already broadcast Shutdown). It
// returns the journal's first error, the final sync's included: non-nil
// means a standby would not replay everything this master decided.
func (m *Master) Close() error {
	m.closeOnce.Do(func() {
		// Fence the recorder before cutting anything: the dying links and
		// failed dispatches this teardown causes must not be journaled as
		// WorkerFailed, or a standby would replay an all-dead registry and
		// take no survivor back into its slot. From here send drops every
		// frame.
		m.rec.fence()
		m.ln.Close()
		m.fd.close()
		m.mu.Lock()
		links := slices.Concat(m.workers, m.joining)
		m.mu.Unlock()
		for _, link := range links {
			if link != nil {
				link.conn.Close()
			}
		}
		m.store.Close()
		// With the fetch server down, nothing can still be streaming from the
		// canonical stores' spill files: release those still held.
		for _, rj := range m.jobs.all() {
			rj.rt().Close()
		}
		if m.leaseStop != nil {
			close(m.leaseStop)
			m.leaseWG.Wait()
		}
		if m.jnl != nil {
			if err := m.jnl.Close(); err != nil {
				m.rec.fail(err)
			}
		}
	})
	return m.rec.Err()
}
