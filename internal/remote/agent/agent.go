// Package agent is the worker side of the distributed data plane: a process
// that joins a master's cluster, rebuilds job plans from the workload
// registry, runs each placed task's monotasks through its own per-resource
// queues (§4.2.3) with the local runtime, serves its partition contributions
// to peers over the shuffle protocol, and reports *measured* completions —
// the (bytes, seconds) samples the master feeds into its per-worker
// processing-rate monitors (§4.2.1–4.2.2), now crossing a socket instead of
// a function call.
package agent

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ursa/internal/dag"
	"ursa/internal/localrt"
	"ursa/internal/mtqueue"
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
	// the lease, keeping its worker ID under the new generation (or taking
	// the one it is welcomed under, if that master already failed its slot).
	MasterAddrs []string
	// ShuffleAddr is the address the agent's shuffle server listens on;
	// empty picks an ephemeral 127.0.0.1 port (loopback clusters) — real
	// deployments pass host:0 or host:port so peers can reach it.
	ShuffleAddr string
	// Cores bounds concurrent CPU monotasks: the CPU queue's limit. The
	// network queue's limit and bypass are the master's (wire.Welcome).
	// Default: GOMAXPROCS.
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
	// the timed section its completion record reports — the agent measures
	// honestly, so the master's rate monitors see a machine delivering
	// below its advertised profile. This is the contention injection knob
	// for heterogeneous-cluster tests and smoke runs; zero for production.
	ExecDelay time.Duration
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
	// canonical store (the master's control address). nil falls back to
	// Dial, then wire.NetDial — tests fault the data plane here without
	// touching the control plane.
	ShuffleDial wire.DialFunc
	// ShuffleListen opens the agent's shuffle listener. nil = wire.NetListen.
	// No test sets it; it is the seam a simulated network plugs into.
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

// handshakeTimeout bounds the wait for the master's Welcome on each
// registration attempt. One value serves every deployment and test, so it is
// not a Config field (the control link's write deadline and graceful-close
// flush window are wire's, the shuffle server's idle cutoff is shuffle's).
const handshakeTimeout = 5 * time.Second

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

// jobState is one prepared job on the agent: its own runtime over the
// shared build, the contribution store that both feeds executions and
// serves peers. A job whose build failed keeps the error instead, and has no
// runtime: every Task for it completes with err.
type jobState struct {
	rt  *localrt.Runtime
	err error

	mu      sync.Mutex
	fetched map[fetchKey]*fetchOnce
}

// fetchOnce is one (dataset, part, origin) of a job: its readers take the
// lock in turn, and the first one to find done unset fetches it.
type fetchOnce struct {
	sync.Mutex
	done bool
}

// close releases the job's spill file, if it has a runtime.
func (js *jobState) close() {
	if js.rt != nil {
		js.rt.Close()
	}
}

// taskData is the agent's part of a task in its runner: the job, the
// frame's monotasks and, by the same index, the record of each that ran.
type taskData struct {
	js   *jobState
	d    []wire.Dispatch
	recs []wire.Complete
}

// Agent is one running worker agent.
type Agent struct {
	cfg Config

	// conn is the live control connection; replaced atomically when the
	// agent re-attaches to a standby master after a failover (readLoop
	// swaps it while heartbeats and completions keep loading it).
	conn    atomic.Pointer[wire.Conn]
	id      atomic.Int32 // worker ID from the latest Welcome
	gen     atomic.Int64 // master generation from the latest Welcome
	hb      time.Duration
	shuffle *shuffle.Server
	// registered flips after the first Welcome: from then on the agent
	// re-registers as its assigned worker ID instead of a fresh -1.
	registered bool

	quit chan struct{}
	wg   sync.WaitGroup

	mu sync.Mutex
	// master is the address of the master this agent last registered with:
	// its control port, which also serves the canonical checkpoint store,
	// the fallback fetch holder. Under mu — rewritten at re-attach while
	// execute goroutines read it.
	master  string
	jobs    map[int64]*jobState
	clients map[string]*shuffle.Client
	// runner runs the tasks in flight here through the agent's monotask
	// queues (§4.2.3): Cores CPU monotasks at once, the master's network
	// limit and bypass, each keyed on its frame's EstInput.
	runner mtqueue.Runner[taskData]

	// builds is the read loop's own: not under mu.
	builds buildCache

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
		cfg:     cfg,
		quit:    make(chan struct{}),
		jobs:    make(map[int64]*jobState),
		clients: make(map[string]*shuffle.Client),
		builds:  buildCache{byKey: make(map[buildKey]*build)},
		done:    make(chan error, 1),
	}
	a.runner.Size = func(t *mtqueue.Task[taskData], i int) float64 { return t.V.d[i].EstInput }

	shufAddr := cfg.ShuffleAddr
	if shufAddr == "" {
		shufAddr = "127.0.0.1:0"
	}
	ln, err := cfg.ShuffleListen(shufAddr)
	if err != nil {
		return nil, fmt.Errorf("agent: shuffle listen %s: %w", shufAddr, err)
	}
	srv := shuffle.Serve(ln, shuffle.ServerConfig{}, a.resolveJob, nil)
	a.shuffle = srv

	w, err := a.register(srv.Addr())
	if err != nil {
		srv.Close()
		return nil, err
	}
	a.registered = true
	a.hb = time.Duration(w.HeartbeatMicros) * time.Microsecond
	a.logf("agent %d: joined master %s gen %d (hb=%v shuffle=%s)",
		a.id.Load(), a.conn.Load().RemoteAddr(), w.Gen, a.hb, srv.Addr())

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
// On success a.conn holds the registered connection, and the agent's worker
// ID, generation and master address are the welcoming master's.
func (a *Agent) register(shuffleAddr string) (wire.Welcome, error) {
	cfg := a.cfg
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	var lastErr error
	for attempt := 0; attempt < cfg.RegisterAttempts; attempt++ {
		if attempt > 0 {
			sleep := wire.Backoff(rng, cfg.RegisterBackoff, cfg.RegisterBackoffMax, attempt-1)
			a.logf("agent: registration attempt %d failed (%v), retrying in %v",
				attempt, lastErr, sleep)
			select {
			case <-a.quit:
				return wire.Welcome{}, fmt.Errorf("agent: shutting down")
			case <-time.After(sleep):
			}
		}
		addr := cfg.MasterAddrs[attempt%len(cfg.MasterAddrs)]
		w, err := a.registerOnce(addr, shuffleAddr)
		if err == nil {
			a.id.Store(w.WorkerID)
			a.gen.Store(w.Gen)
			a.mu.Lock()
			a.master = addr
			a.runner.Limits = mtqueue.Limits{
				Cores: cfg.Cores,
				Net:   max(int(w.NetConcurrency), 1),
				Small: w.SmallMonotaskBytes,
			}
			a.mu.Unlock()
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
		// Control-plane blobs (Prepare params) are consumed synchronously
		// inside the read-loop handler, so pooled frames are safe here.
		PooledReads: true,
	})
	// A fresh worker registers as -1 and is assigned an ID; after the first
	// Welcome the agent re-registers as that ID, which a takeover master
	// matches against the replayed control-plane state to re-attach it.
	workerID := int32(-1)
	if a.registered {
		workerID = a.id.Load()
	}
	if !conn.Send(wire.Register{
		WorkerID: workerID, ShuffleAddr: shuffleAddr, Cores: int32(cfg.Cores),
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

// masterAddr returns the address of the master this agent registered with,
// where the canonical store answers fetches.
func (a *Agent) masterAddr() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.master
}

// ID returns the worker ID the master last welcomed this agent under.
func (a *Agent) ID() int { return int(a.id.Load()) }

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

// Stop drains in-flight executions and leaves the cluster without the
// master's consent — the worker binary's path when RequestDrain cannot reach
// the master, or on a second signal. The master sees the connection drop and
// fails this worker through the §4.3 recovery path; committed outputs stay
// durable at its checkpoint.
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
			js.close()
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
			a.conn.Load().Send(wire.Heartbeat{WorkerID: a.id.Load(), SentUnixMicros: now.UnixMicro()})
		}
	}
}

// readLoop is the control-plane inbound path. Prepare is handled
// synchronously so the per-connection FIFO guarantees every Task for a job
// arrives after its plan exists; a Task's monotasks run asynchronously.
// With standby masters configured (len(MasterAddrs) > 1), a lost connection
// re-registers instead of exiting: in-flight work is aborted (the next
// master re-schedules from its replayed state), then the agent re-attaches
// as its existing worker ID under the new generation.
func (a *Agent) readLoop() {
	defer a.wg.Done()
	for {
		err := a.conn.Load().ReadLoop(a.handleMsg)
		if err == errClean {
			a.logf("agent %d: shutdown requested, draining", a.id.Load())
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
		a.logf("agent %d: master connection lost (%v), re-registering", a.id.Load(), err)
		// In-flight tasks belong to a dead master's generation: their records
		// are swallowed, and the successor re-dispatches from replayed state.
		// A monotask already running still runs to completion — its commit
		// into the job runtime is idempotent.
		a.mu.Lock()
		a.runner.AbortAll()
		a.mu.Unlock()
		w, rerr := a.register(a.shuffle.Addr())
		if rerr != nil {
			a.shutdown(fmt.Errorf("agent: master connection lost: %w (re-registration: %v)", err, rerr))
			return
		}
		a.logf("agent %d: re-attached under generation %d", a.id.Load(), w.Gen)
	}
}

func (a *Agent) handleMsg(m wire.Msg) error {
	switch m := m.(type) {
	case wire.Prepare:
		a.prepare(m)
	case wire.Task:
		a.handleTask(m)
	case wire.Abort:
		a.mu.Lock()
		a.runner.Abort(m.JobID, m.Seq)
		a.mu.Unlock()
	case wire.JobDone:
		a.mu.Lock()
		js := a.jobs[m.JobID]
		delete(a.jobs, m.JobID)
		a.mu.Unlock()
		if js != nil {
			// Releases the job's spill file; the shuffle server can no
			// longer resolve the job, so nothing serves from it.
			js.close()
		}
	case wire.DrainWorker:
		// The master is draining this worker: no further dispatches will
		// arrive, but in-flight work keeps running and the shuffle server
		// keeps serving peers until DrainDone says every consumer is settled.
		a.logf("agent %d: draining (%s)", a.id.Load(), m.Reason)
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

// RequestDrain asks the master to drain this worker gracefully — the worker
// binary's first SIGINT/SIGTERM. The master stops dispatching here, lets in-flight
// monotasks commit, migrates fetch routing off this worker, and answers
// DrainDone, which shuts the agent down cleanly (Wait returns nil). Returns
// false when the control connection is already down; callers fall back to
// Stop.
func (a *Agent) RequestDrain(reason string) bool {
	return a.conn.Load().Send(wire.DrainWorker{WorkerID: a.id.Load(), Reason: reason})
}

var errClean = fmt.Errorf("agent: clean shutdown")

// drain waits for in-flight tasks to finish before a clean exit.
func (a *Agent) drain() {
	for {
		a.mu.Lock()
		n := a.runner.Unfinished()
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

// prepare gives the job its own runtime over the agent's build of its
// (workload, params) — the cross-process identity contract: same builder,
// same params, same IDs, so nothing but (name, params) crosses the wire.
// The runtime binds the build's inputs: a generated partition is made by the
// monotask that reads it, so prepare itself makes no rows. It
// answers nothing: the master sends a job's Prepare just ahead of this
// worker's first Task of it, and the FIFO connection orders that Task
// behind the plan, or behind the build error, kept as the job's, that it
// then completes with. Idempotent: a takeover master prepares a
// re-attached agent again, and the existing runtime (plan, contributions,
// spill) must survive it.
func (a *Agent) prepare(p wire.Prepare) {
	a.mu.Lock()
	_, dup := a.jobs[p.JobID]
	a.mu.Unlock()
	if dup {
		return
	}
	js := &jobState{fetched: make(map[fetchKey]*fetchOnce)}
	if b, err := a.builds.get(p.Workload, p.Params); err != nil {
		js.err = fmt.Errorf("agent: prepare job %d (%s): %w", p.JobID, p.Workload, err)
		a.logf("agent %d: %v", a.id.Load(), js.err)
	} else {
		js.rt = localrt.New(b.plan)
		// Encode-once: every committed contribution is serialized at commit
		// time and served as cached bytes from then on.
		js.rt.SetCodec(workload.Codec{})
		if a.cfg.ShuffleMemBudget > 0 {
			js.rt.SetSpill(a.cfg.ShuffleMemBudget, a.cfg.ShuffleSpillDir)
		}
		for _, in := range b.inputs {
			js.rt.BindInput(in)
		}
		a.logf("agent %d: prepared job %d (%s)", a.id.Load(), p.JobID, p.Workload)
	}
	a.mu.Lock()
	a.jobs[p.JobID] = js
	a.mu.Unlock()
}

// buildCacheRows bounds the build cache by the job-input rows its builds
// describe. A bound on rows, not builds, keeps data-heavy jobs out: their
// build is a small share of their run. 1<<14 holds a few dozen small jobs.
const buildCacheRows = 1 << 14

// build is one (workload, params) described on this agent: its plan and its
// inputs, generated ones as generators. Every job with that identity shares it
// read-only. Execution only reads a plan (its monotasks, steps and datasets)
// and the rows it gathers, and UDFs may not mutate their input rows, which a
// retried monotask re-reads (DESIGN §9).
type build struct {
	plan   *dag.Plan
	inputs []localrt.PlanInput
	rows   int // input rows described over all inputs
}

type buildKey struct{ workload, params string }

// buildCache holds the builds of recent (workload, params) identities, up to
// buildCacheRows input rows; the oldest go first. The read loop, which
// handles every Prepare, owns it, so it takes no lock.
type buildCache struct {
	byKey map[buildKey]*build
	order []buildKey // oldest first
	rows  int
}

// get returns the build of (name, params), building it on a miss. A build
// whose inputs alone exceed the bound is returned but not kept.
func (c *buildCache) get(name string, params []byte) (*build, error) {
	key := buildKey{name, string(params)}
	if b := c.byKey[key]; b != nil {
		return b, nil
	}
	bj, err := workload.Describe(name, params)
	if err != nil {
		return nil, err
	}
	b := &build{plan: bj.Plan, inputs: bj.Inputs}
	for _, in := range bj.Inputs {
		b.rows += in.Len()
	}
	if b.rows > buildCacheRows {
		return b, nil
	}
	for c.rows+b.rows > buildCacheRows {
		c.rows -= c.byKey[c.order[0]].rows
		delete(c.byKey, c.order[0])
		c.order = c.order[1:]
	}
	c.byKey[key] = b
	c.order = append(c.order, key)
	c.rows += b.rows
	return b, nil
}

// handleTask takes one placed task into the agent's runner; its records
// leave in one TaskDone under its seq once its last monotask settles. A Task
// the agent cannot run — its job was never prepared here, its job's build
// failed, or it names a monotask the plan does not have — completes at once,
// every monotask with Err set, so the master can retire it.
func (a *Agent) handleTask(f wire.Task) {
	a.mu.Lock()
	js := a.jobs[f.JobID]
	a.mu.Unlock()
	mts := make([]*dag.Monotask, len(f.MTs))
	var err error
	switch {
	case js == nil:
		err = fmt.Errorf("agent: task for unprepared job %d", f.JobID)
	case js.err != nil:
		err = js.err
	default:
		plan := js.rt.Plan()
		for i, d := range f.MTs {
			if int(d.MTID) < 0 || int(d.MTID) >= len(plan.Monotasks) || plan.Monotasks[d.MTID].Virtual() {
				err = fmt.Errorf("agent: job %d has no monotask %d", f.JobID, d.MTID)
				break
			}
			mts[i] = plan.Monotasks[d.MTID]
		}
	}
	if err != nil {
		td := wire.TaskDone{JobID: f.JobID, Seq: f.Seq}
		for _, d := range f.MTs {
			td.Records = append(td.Records, wire.Complete{JobID: f.JobID, MTID: d.MTID, Err: err.Error()})
		}
		a.conn.Load().Send(td)
		return
	}
	t := &mtqueue.Task[taskData]{Job: f.JobID, Seq: f.Seq, Prio: f.Prio, MTs: mts,
		V: taskData{js: js, d: f.MTs, recs: make([]wire.Complete, len(mts))}}
	a.mu.Lock()
	s := a.runner.Start(t)
	a.mu.Unlock()
	a.launch(s)
}

// launch does what a runner step left: finished tasks' TaskDone frames first
// (a finished task is the runner's no more, so no lock), so its records are
// queued before the monotasks its end let start can finish, then those
// monotasks, each on a goroutine of its own.
func (a *Agent) launch(s mtqueue.Step[taskData]) {
	for _, t := range s.Done {
		for i, mt := range t.MTs {
			if !t.Ran(i) {
				t.V.recs[i] = wire.Complete{JobID: t.Job, MTID: t.V.d[i].MTID,
					Err: fmt.Sprintf("agent: %v not run: %v", mt, t.Err())}
			}
		}
		a.conn.Load().Send(wire.TaskDone{JobID: t.Job, Seq: t.Seq, Records: t.V.recs})
	}
	for _, run := range s.Start {
		a.wg.Add(1)
		go a.run(run)
	}
}

// run executes one started monotask, then settles it.
func (a *Agent) run(run mtqueue.Run[taskData]) {
	defer a.wg.Done()
	t := run.Task
	rec := a.execute(t.V.js, t.V.d[run.I], run.Monotask())
	t.V.recs[run.I] = rec
	var err error
	if rec.Err != "" {
		err = fmt.Errorf("%v: %s", run.Monotask(), rec.Err)
	}
	a.mu.Lock()
	s := a.runner.Settle(run, err)
	a.mu.Unlock()
	a.launch(s)
}

// execute runs one monotask of a task: pull the named input partitions into
// the local store, execute, and return the measured record. Seconds covers
// fetch + execution (the work the task caused), excluding time queued.
func (a *Agent) execute(js *jobState, d wire.Dispatch, mt *dag.Monotask) wire.Complete {
	comp := wire.Complete{JobID: d.JobID, MTID: d.MTID}
	fetchStart := time.Now()
	wireBytes, rawBytes, retries, fallbacks, err := a.ensureInputs(js, d)
	fetchDur := time.Since(fetchStart)
	comp.FetchRetries = int32(retries)
	comp.FetchFallbacks = int32(fallbacks)
	if err != nil {
		comp.Err = err.Error()
		return comp
	}

	execStart := time.Now()
	writes, err := js.rt.ExecRecord(mt)
	if d := a.cfg.ExecDelay; d > 0 {
		// Contention injection: the stall sits inside the timed section,
		// so the honestly-measured completion exposes the slow-down to
		// the master's rate monitors.
		time.Sleep(d)
	}
	execDur := time.Since(execStart)
	if err != nil {
		comp.Err = err.Error()
		return comp
	}
	comp.Seconds = (fetchDur + execDur).Seconds()
	if comp.Seconds < 1e-6 {
		// Floor at clock granularity so a trivial monotask cannot inject a
		// near-infinite rate sample (as the in-process executor does).
		comp.Seconds = 1e-6
	}
	comp.FetchedWireBytes = wireBytes
	comp.FetchedRawBytes = rawBytes
	// Encode-once: the commit above already serialized every write into the
	// contribution store, so the record ships those exact cached bytes — no
	// second marshal, and the master checkpoints byte-identical blobs. A
	// write that never leaves the task was committed as rows and is not
	// among them.
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
	// raw bytes of the writes it ships. The master sums these per job into
	// an aggregate-working-set estimate it compares against the admission
	// reservation.
	var outRaw float64
	for _, w := range comp.Writes {
		outRaw += float64(w.RawLen)
	}
	comp.MemPeak = rawBytes
	if outRaw > comp.MemPeak {
		comp.MemPeak = outRaw
	}
	return comp
}

// ensureInputs pulls every partition a monotask's fetch specs name into the
// local contribution store. Fetches are made once per (dataset, part,
// origin) — contribution sets are final before any reader dispatches (the
// dag orders readers after their producers' completions), so a fetched
// partition can never be stale — and a reader that finds a fetch of its key
// in flight waits for it, fetching itself only if that one failed.
// Transient peer faults are absorbed inside Client.Fetch by retry/backoff;
// only once that budget is exhausted does the fetch degrade to the master's
// canonical store (§4.3), and each such degradation is counted so the
// master's transport metrics surface it. A spec with Origin -1 names that
// store, which answers at the master's address.
func (a *Agent) ensureInputs(js *jobState, d wire.Dispatch) (wireBytes, rawBytes float64, retries, fallbacks int, err error) {
	masterStore := a.masterAddr()
	for _, f := range d.Fetches {
		ds := js.rt.DatasetByID(int(f.DatasetID))
		if ds == nil {
			return wireBytes, rawBytes, retries, fallbacks, fmt.Errorf("agent: dispatch names unknown dataset %d", f.DatasetID)
		}
		key := fetchKey{f.DatasetID, f.Part, f.Origin}
		js.mu.Lock()
		once := js.fetched[key]
		if once == nil {
			once = new(fetchOnce)
			js.fetched[key] = once
		}
		js.mu.Unlock()
		once.Lock()
		if once.done {
			once.Unlock()
			continue
		}
		// The sink copies each fetched blob out of the client's pooled frame
		// and hands ownership to the contribution store as-is — still
		// encoded. Decoding happens lazily at the store's single consumption
		// site (gather), so a partition fetched for one monotask but consumed
		// by none is never deserialized at all.
		sink := func(resp *wire.FetchResp) error {
			for i := range resp.Contribs {
				pc := &resp.Contribs[i]
				js.rt.InsertEncoded(ds, int(f.Part), int(pc.MTID),
					append([]byte(nil), pc.Rows...), pc.Flags, int(pc.RawLen))
			}
			return nil
		}
		holder := f.Addr
		if f.Origin < 0 {
			holder = masterStore
		}
		n, nr, r, err := a.client(holder).FetchFunc(d.JobID, f.DatasetID, f.Part, f.Origin, sink)
		retries += r
		if err != nil && f.Origin >= 0 {
			// Peer unreachable after the full retry budget: the master's
			// checkpoint has every committed contribution (§4.3), so degrade
			// to it — correct but no longer peer-to-peer, hence counted.
			fallbacks++
			a.logf("agent %d: fetch ds%d/p%d from w%d failed (%v), falling back to master",
				a.id.Load(), f.DatasetID, f.Part, f.Origin, err)
			n, nr, r, err = a.client(masterStore).FetchFunc(d.JobID, f.DatasetID, f.Part, -1, sink)
			retries += r
		}
		once.done = err == nil
		once.Unlock()
		if err != nil {
			return wireBytes, rawBytes, retries, fallbacks, err
		}
		wireBytes += n
		rawBytes += nr
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
