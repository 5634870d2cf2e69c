package remote

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"ursa/internal/core"
	"ursa/internal/cpstate"
	"ursa/internal/metrics"
	"ursa/internal/remote/workload"
	"ursa/internal/wire"
)

// frontDoor is the master's multi-tenant job submission path (serve mode):
// client connections feed SubmitJob frames into sharded intake queues, and a
// single pump goroutine drains them in batches through live.System.Submit —
// one driver crossing and one admission pass per batch, so the scheduler's
// per-submission cost (reservation check, SRJF rank refresh, queue insert)
// is amortized to O(batch) instead of O(backlog) per job. Acks flow back on
// the submitting connection; job lifecycle transitions stream as JobStatus
// frames through the bounded client send queue, dropped (and counted) when a
// slow subscriber's queue is full.
type frontDoor struct {
	m      *Master
	Ingest *metrics.Ingest

	shards []intakeShard
	queued atomic.Int64 // intake entries accepted but not yet flushed
	notify chan struct{}

	draining atomic.Bool
	quit     chan struct{}
	quitOnce sync.Once

	// submitMu is held by flush, the only submitter, from reading the drain
	// flag to shipping a batch, and by drain while it sets the flag: once
	// drain has released it, no further batch can slip into the scheduler.
	submitMu sync.Mutex

	mu      sync.Mutex
	clients map[*clientLink]struct{}
}

// nIntakeShards spreads intake contention across tenant-hashed locks; a
// tenant always lands on one shard, so its submissions stay FIFO.
const nIntakeShards = 8

// maxAdmissionBatch caps jobs per scheduler pass so one flush cannot occupy
// the control loop unboundedly; the pump immediately collects the next batch.
const maxAdmissionBatch = 4096

type intakeShard struct {
	mu   sync.Mutex
	subs []intakeSub
	// perTenant counts this shard's queued submissions by tenant. A tenant
	// always hashes to one shard, so its count here is its global intake
	// depth — the TenantIntakeCap check needs no cross-shard coordination.
	perTenant map[string]int
}

type intakeSub struct {
	link     *clientLink
	submitID int64
	tenant   string
	workload string
	params   []byte
}

// clientLink is one client connection. The wire.Conn's send queue is bounded
// by clientSendQueue; acks use Send (a client that stops draining its
// own acks is a dead peer), status updates use TrySend (drop, don't kill).
type clientLink struct {
	conn *wire.Conn
}

func newFrontDoor(m *Master) *frontDoor {
	fd := &frontDoor{
		m:       m,
		Ingest:  metrics.NewIngest(),
		shards:  make([]intakeShard, nIntakeShards),
		notify:  make(chan struct{}, 1),
		quit:    make(chan struct{}),
		clients: make(map[*clientLink]struct{}),
	}
	// The job-state hook is installed by the master (it records the
	// control-plane event first, then delegates here for status streaming).
	go fd.pump()
	return fd
}

func (fd *frontDoor) close() {
	fd.quitOnce.Do(func() { close(fd.quit) })
	fd.mu.Lock()
	links := make([]*clientLink, 0, len(fd.clients))
	for l := range fd.clients {
		links = append(links, l)
	}
	fd.mu.Unlock()
	for _, l := range links {
		l.conn.Close()
	}
}

// serveClient owns one client connection's inbound path; runs on the
// connection's handshake goroutine until the peer hangs up.
func (fd *frontDoor) serveClient(c *wire.Conn, first wire.Msg) {
	link := &clientLink{conn: c}
	fd.mu.Lock()
	fd.clients[link] = struct{}{}
	fd.mu.Unlock()
	fd.Ingest.ObserveClient()
	fd.handleClientMsg(link, first)
	c.ReadLoop(func(msg wire.Msg) error {
		fd.handleClientMsg(link, msg)
		return nil
	})
	c.Close()
	fd.mu.Lock()
	delete(fd.clients, link)
	fd.mu.Unlock()
}

func (fd *frontDoor) handleClientMsg(link *clientLink, msg wire.Msg) {
	switch msg := msg.(type) {
	case wire.SubmitJob:
		fd.submit(link, msg)
	case wire.CancelJob:
		fd.cancelJob(msg.JobID)
	case wire.JobQuery:
		fd.queryJob(link, msg)
	}
}

// queryJob answers a point-in-time job-status read from the control-plane
// state machine (thread-safe; no loop crossing). A job the state machine
// has no record of — never submitted, or dropped across a restart whose
// journal was compacted — gets a terminal StateNotFound, so a client
// polling a lost job gets a definitive answer instead of waiting forever.
func (fd *frontDoor) queryJob(link *clientLink, q wire.JobQuery) {
	state := wire.StateNotFound
	detail := "unknown job"
	if js, ok := fd.m.rec.job(q.JobID); ok {
		switch js.Phase {
		case cpstate.PhaseQueued:
			state, detail = wire.StateQueued, ""
		case cpstate.PhaseAdmitted:
			state, detail = wire.StateAdmitted, ""
		case cpstate.PhaseFinished:
			state, detail = wire.StateFinished, ""
		case cpstate.PhaseCancelled:
			state, detail = wire.StateCancelled, "cancelled"
		}
	} else {
		fd.m.Journal.ObserveNotFound()
	}
	if !link.conn.TrySend(wire.JobStatus{
		SubmitID: q.SubmitID, JobID: q.JobID, State: state, Detail: detail,
	}) {
		fd.Ingest.ObserveStatusDrop(1)
	}
}

func (fd *frontDoor) reject(link *clientLink, submitID int64, reason string) {
	fd.Ingest.ObserveRejection()
	link.conn.Send(wire.SubmitAck{SubmitID: submitID, Err: reason})
}

// submit runs on the client's read goroutine: admission control on the
// intake (drain, cap), then an O(1) sharded append — the scheduler is not
// touched here.
func (fd *frontDoor) submit(link *clientLink, msg wire.SubmitJob) {
	if fd.draining.Load() {
		fd.reject(link, msg.SubmitID, "draining")
		return
	}
	if int(fd.queued.Load()) >= intakeCap {
		fd.reject(link, msg.SubmitID, "intake full")
		return
	}
	sub := intakeSub{
		link: link, submitID: msg.SubmitID,
		tenant: msg.Tenant, workload: msg.Workload, params: msg.Params,
	}
	sh := &fd.shards[shardFor(msg.Tenant)]
	sh.mu.Lock()
	if cap := fd.m.cfg.TenantIntakeCap; cap > 0 && sh.perTenant[msg.Tenant] >= cap {
		sh.mu.Unlock()
		fd.reject(link, msg.SubmitID, "tenant intake full")
		return
	}
	if sh.perTenant == nil {
		sh.perTenant = make(map[string]int)
	}
	sh.perTenant[msg.Tenant]++
	sh.subs = append(sh.subs, sub)
	sh.mu.Unlock()
	fd.queued.Add(1)
	select {
	case fd.notify <- struct{}{}:
	default:
	}
}

func shardFor(tenant string) int {
	h := fnv.New32a()
	h.Write([]byte(tenant))
	return int(h.Sum32() % nIntakeShards)
}

// pump is the batched admission pipeline: wait for intake, flush it through
// the scheduler in one pass, repeat. AdmissionInterval is the minimum spacing
// between passes: a submission that finds the intake idle for that long is
// flushed at once, and one that arrives sooner waits out only the remainder,
// during which a burst accumulates into one batch.
func (fd *frontDoor) pump() {
	// Like every flush, the first waits until the loop has run the pump's
	// previous crossing — here an empty one, which the loop runs only once
	// Run starts it — so what arrives before Run parks on the intake and is
	// admitted as one batch.
	done := make(chan struct{})
	fd.m.Sys.Drv.Send(func() { close(done) })
	if !fd.await(done) {
		return
	}
	var lastFlush time.Time
	for {
		select {
		case <-fd.quit:
			return
		case <-fd.notify:
		}
		if wait := fd.m.cfg.AdmissionInterval - time.Since(lastFlush); wait > 0 {
			select {
			case <-fd.quit:
				return
			case <-time.After(wait):
			}
		}
		fd.flush()
		lastFlush = time.Now()
	}
}

// flush drains the intake in batches. Each batch waits for the previous
// admission pass to complete on the loop before the next is shipped, so the
// driver inbox holds at most one front-door batch at a time.
func (fd *frontDoor) flush() {
	for {
		fd.submitMu.Lock()
		if fd.draining.Load() {
			fd.submitMu.Unlock()
			fd.rejectIntake("draining")
			return
		}
		batch := fd.collect(maxAdmissionBatch)
		if len(batch) == 0 {
			fd.submitMu.Unlock()
			return
		}
		done := make(chan struct{})
		n := fd.submitBatch(batch, func() { close(done) })
		fd.submitMu.Unlock()
		if n > 0 && !fd.await(done) {
			return
		}
	}
}

// await waits for the loop to run a crossing whose after closes done, and
// reports false if the front door closed first.
func (fd *frontDoor) await(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	case <-fd.quit:
		return false
	}
}

// collect takes up to max intake entries across the shards, FIFO per shard.
func (fd *frontDoor) collect(max int) []intakeSub {
	var out []intakeSub
	for i := range fd.shards {
		sh := &fd.shards[i]
		sh.mu.Lock()
		take := len(sh.subs)
		if len(out)+take > max {
			take = max - len(out)
		}
		for i := 0; i < take; i++ {
			if n := sh.perTenant[sh.subs[i].tenant] - 1; n > 0 {
				sh.perTenant[sh.subs[i].tenant] = n
			} else {
				delete(sh.perTenant, sh.subs[i].tenant)
			}
		}
		out = append(out, sh.subs[:take]...)
		if take == len(sh.subs) {
			sh.subs = nil
		} else {
			rest := make([]intakeSub, len(sh.subs)-take)
			copy(rest, sh.subs[take:])
			sh.subs = rest
		}
		sh.mu.Unlock()
		if len(out) >= max {
			break
		}
	}
	fd.queued.Add(-int64(len(out)))
	return out
}

// submitBatch builds each submission's workload off the loop and ships the
// whole batch in one driver crossing. Returns how many submissions were
// shipped (build failures are acked with the error and skipped). Caller
// holds submitMu.
func (fd *frontDoor) submitBatch(batch []intakeSub, after func()) int {
	rows := make([]*RemoteJob, 0, len(batch))
	ins := make([]intakeSub, 0, len(batch))
	for _, in := range batch {
		bj, err := workload.Build(in.workload, in.params)
		if err != nil {
			fd.reject(in.link, in.submitID, err.Error())
			continue
		}
		bj.Spec.Tenant = in.tenant
		bj.Spec.MemEstimate *= fd.m.reserveFactor(in.workload)
		rows = append(rows, &RemoteJob{Built: bj, client: in.link, submitID: in.submitID})
		ins = append(ins, in)
	}
	if len(rows) == 0 {
		return 0
	}
	fd.Ingest.ObserveBatch(len(rows))
	fd.m.submit(rows, func(i int) { fd.bindJob(rows[i], ins[i]) }, after)
	return len(rows)
}

// rejectIntake acks everything still parked on the intake with a terminal
// rejection (drain path).
func (fd *frontDoor) rejectIntake(reason string) {
	for {
		batch := fd.collect(maxAdmissionBatch)
		if len(batch) == 0 {
			return
		}
		for i := range batch {
			fd.reject(batch[i].link, batch[i].submitID, reason)
		}
	}
}

// bindJob runs on the control loop once the job's row is in the table — its
// stable wire ID minted — and the job in its tenant queue; no admission hook
// can fire before it returns. It records the submission in the
// control-plane state and acks it.
func (fd *frontDoor) bindJob(rj *RemoteJob, in intakeSub) {
	fd.m.rec.record(cpstate.JobSubmitted{
		JobID: rj.id, Tenant: in.tenant, Workload: in.workload, Params: in.params,
	})
	fd.Ingest.ObserveSubmission()
	in.link.conn.Send(wire.SubmitAck{SubmitID: in.submitID, JobID: rj.id})
}

// sendStatus streams one lifecycle update to the client that submitted rj,
// if one did (fd is nil outside serve mode, where no job has a client). A
// full client queue drops the frame (counted): no buffering, no failed link.
func (fd *frontDoor) sendStatus(rj *RemoteJob, state byte, detail string) {
	if rj.client == nil {
		return
	}
	ok := rj.client.conn.TrySend(wire.JobStatus{
		SubmitID: rj.submitID, JobID: rj.id,
		State: state, Detail: detail,
	})
	if !ok {
		fd.Ingest.ObserveStatusDrop(1)
	}
}

// cancelJob relays a client cancellation onto the loop; lazy cancellation in
// the scheduler makes it O(1). The terminal status flows from onJobState.
// Only front-door jobs can be cancelled this way.
func (fd *frontDoor) cancelJob(jobID int64) {
	fd.m.Sys.Drv.Send(func() {
		if rj := fd.m.jobs.get(jobID); rj != nil && rj.client != nil {
			fd.cancel(rj)
		}
	})
}

func (fd *frontDoor) cancel(rj *RemoteJob) {
	if fd.m.Sys.Core.CancelJob(rj.Live.Core) {
		fd.Ingest.ObserveCancel()
	}
}

// drain begins the graceful shutdown: refuse new submissions, terminally ack
// everything still on the intake, cancel queued-but-unadmitted front-door
// jobs, and stop the loop once the last admitted job finishes.
func (fd *frontDoor) drain() {
	// The submitMu round-trip fences in-flight flushes: once it is released,
	// every later batch sees draining and rejects instead of submitting.
	fd.submitMu.Lock()
	fd.draining.Store(true)
	fd.submitMu.Unlock()
	fd.rejectIntake("draining")
	fd.m.Sys.Drv.Send(func() {
		for _, rj := range fd.m.jobs.all() {
			if rj.client != nil && rj.Live.Core.State == core.JobQueued {
				fd.cancel(rj)
			}
		}
		fd.maybeFinishDrain()
	})
}

// maybeFinishDrain stops the driver once a drain has emptied the scheduler.
// Runs on the control loop (the master's job-finished hook and the drain
// closure); a nil front door (serve mode off) has nothing to drain.
// Pre-submitted batch jobs still queued keep the loop alive until they run to
// completion — drain refuses new work, it does not abandon accepted work.
func (fd *frontDoor) maybeFinishDrain() {
	if fd == nil || !fd.draining.Load() {
		return
	}
	sched := fd.m.Sys.Core.Sched
	if sched.AdmittedCount() == 0 && sched.QueuedCount() == 0 {
		fd.m.Sys.Shutdown()
	}
}
