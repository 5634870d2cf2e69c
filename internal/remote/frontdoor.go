package remote

import (
	"sync"

	"ursa/internal/core"
	"ursa/internal/cpstate"
	"ursa/internal/metrics"
	"ursa/internal/remote/workload"
	"ursa/internal/wire"
)

// frontDoor is the master's multi-tenant job submission path; its drain ends
// every run. A SubmitJob frame is checked against the intake bounds, built
// and handed to live.System.Submit on its client's read goroutine, one job
// per driver crossing. The control loop's end-of-batch admission pass covers
// every job its batch queued, so a burst that arrives together is admitted in
// one reservation/rank/sort pass with no timer and no goroutine of the front
// door's own. Acks flow back on the submitting connection; job lifecycle
// transitions stream as JobStatus frames through the bounded client send
// queue, dropped (and counted) when a slow subscriber's queue is full.
type frontDoor struct {
	m      *Master
	Ingest *metrics.Ingest

	// mu guards the client set, the drain flag and the intake: submissions
	// accepted but not yet queued on the control loop, in all and per tenant.
	// One lock for the flag and the count is what lets a drain answer every
	// submission it accepted: none is counted once the flag is set, and the
	// loop stops only when the count is zero.
	mu        sync.Mutex
	clients   map[*clientLink]struct{}
	draining  bool
	intake    int
	perTenant map[string]int
}

// clientLink is one client connection. The wire.Conn's send queue is bounded
// by clientSendQueue; acks use Send (a client that stops draining its
// own acks is a dead peer), status updates use TrySend (drop, don't kill).
type clientLink struct {
	conn *wire.Conn
}

func newFrontDoor(m *Master) *frontDoor {
	// The job-state hook is installed by the master (it records the
	// control-plane event first, then delegates here for status streaming).
	return &frontDoor{
		m:         m,
		Ingest:    metrics.NewIngest(m.Sys.AdmissionPasses),
		clients:   make(map[*clientLink]struct{}),
		perTenant: make(map[string]int),
	}
}

func (fd *frontDoor) close() {
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

// submit runs on the client's read goroutine: intake control (drain, caps),
// then the workload build, then the crossing onto the control loop, where
// bindJob acks the job as it is queued.
func (fd *frontDoor) submit(link *clientLink, msg wire.SubmitJob) {
	if reason := fd.accept(msg.Tenant); reason != "" {
		fd.reject(link, msg.SubmitID, reason)
		return
	}
	bj, err := workload.Build(msg.Workload, msg.Params)
	if err != nil {
		if fd.settle(msg.Tenant) {
			fd.m.Sys.Drv.Send(fd.maybeFinishDrain)
		}
		fd.reject(link, msg.SubmitID, err.Error())
		return
	}
	bj.Spec.Tenant = msg.Tenant
	bj.Spec.MemEstimate *= fd.m.reserveFactor(msg.Workload)
	rj := &RemoteJob{Built: bj, client: link, submitID: msg.SubmitID}
	fd.m.submit(rj, func() { fd.bindJob(rj, msg) })
}

// accept counts a submission onto the intake, or returns why it is refused.
func (fd *frontDoor) accept(tenant string) string {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	switch {
	case fd.draining:
		return "draining"
	case fd.intake >= intakeCap:
		return "intake full"
	case fd.m.cfg.TenantIntakeCap > 0 && fd.perTenant[tenant] >= fd.m.cfg.TenantIntakeCap:
		return "tenant intake full"
	}
	fd.intake++
	fd.perTenant[tenant]++
	return ""
}

// settle takes a submission off the intake — it is queued on the loop, or
// its build failed — and reports whether a drain has begun.
func (fd *frontDoor) settle(tenant string) (draining bool) {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	fd.intake--
	if n := fd.perTenant[tenant] - 1; n > 0 {
		fd.perTenant[tenant] = n
	} else {
		delete(fd.perTenant, tenant)
	}
	return fd.draining
}

// bindJob runs on the control loop once the job's row is in the table — its
// stable wire ID minted — and the job in its tenant queue, before the
// admission pass that can admit it. It records the submission in the
// control-plane state and acks it. A job that reaches the loop once a drain
// has begun, possibly after the drain's cancel pass, is cancelled here.
func (fd *frontDoor) bindJob(rj *RemoteJob, msg wire.SubmitJob) {
	fd.m.rec.record(cpstate.JobSubmitted{
		JobID: rj.id, Tenant: msg.Tenant, Workload: msg.Workload, Params: msg.Params,
	})
	fd.Ingest.ObserveSubmission()
	rj.client.conn.Send(wire.SubmitAck{SubmitID: msg.SubmitID, JobID: rj.id})
	if fd.settle(msg.Tenant) {
		fd.cancel(rj)
		fd.maybeFinishDrain()
	}
}

// sendStatus streams one lifecycle update to the client that submitted rj,
// if one did (a held job has none). A full client queue drops the frame
// (counted): no buffering, no failed link.
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

// drain begins the graceful shutdown: refuse new submissions, cancel
// queued-but-unadmitted front-door jobs, and stop the loop once every
// accepted submission has reached it and the last admitted job finishes.
func (fd *frontDoor) drain() {
	fd.mu.Lock()
	fd.draining = true
	fd.mu.Unlock()
	fd.m.Sys.Drv.Send(func() {
		for _, rj := range fd.m.jobs.all() {
			if rj.client != nil && rj.Live.Core.State == core.JobQueued {
				fd.cancel(rj)
			}
		}
		fd.maybeFinishDrain()
	})
}

// maybeFinishDrain stops the driver once a drain has emptied the intake and
// the scheduler. Runs on the control loop (the master's job-finished hook,
// the drain closure, bindJob). Held jobs keep the loop alive until they run
// to completion — drain refuses new work, it does not abandon accepted work.
func (fd *frontDoor) maybeFinishDrain() {
	fd.mu.Lock()
	idle := fd.draining && fd.intake == 0
	fd.mu.Unlock()
	sched := fd.m.Sys.Core.Sched
	if idle && sched.AdmittedCount() == 0 && sched.QueuedCount() == 0 {
		fd.m.Sys.Shutdown()
	}
}
