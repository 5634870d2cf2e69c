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
// queue, dropped (and counted) when a slow subscriber's queue is full. Every
// frame leaves through Master.send.
type frontDoor struct {
	m      *Master
	Ingest *metrics.Ingest

	// mu guards the client set (nil once close has run), the drain flag and
	// the intake: submissions accepted but not yet queued on the control
	// loop. One lock for the flag and the count is what lets a drain answer
	// every submission it accepted: none is counted once the flag is set,
	// and the loop stops only when the count is zero.
	mu       sync.Mutex
	clients  map[*wire.Conn]struct{}
	draining bool
	intake   int
}

func newFrontDoor(m *Master) *frontDoor {
	// The job-state hook is installed by the master (it records the
	// control-plane event first, then delegates here for status streaming).
	return &frontDoor{
		m:       m,
		Ingest:  metrics.NewIngest(m.Sys.AdmissionPasses),
		clients: make(map[*wire.Conn]struct{}),
	}
}

func (fd *frontDoor) close() {
	fd.mu.Lock()
	clients := fd.clients
	fd.clients = nil
	fd.mu.Unlock()
	for c := range clients {
		c.Close()
	}
}

// serveClient owns one client connection's inbound path; runs on the
// connection's handshake goroutine until the peer hangs up. A handshake that
// ends after close is cut at once.
func (fd *frontDoor) serveClient(c *wire.Conn, first wire.Msg) {
	fd.mu.Lock()
	if fd.clients == nil {
		fd.mu.Unlock()
		c.Close()
		return
	}
	fd.clients[c] = struct{}{}
	fd.mu.Unlock()
	fd.Ingest.ObserveClient()
	fd.handleClientMsg(c, first)
	c.ReadLoop(func(msg wire.Msg) error {
		fd.handleClientMsg(c, msg)
		return nil
	})
	c.Close()
	fd.mu.Lock()
	delete(fd.clients, c)
	fd.mu.Unlock()
}

func (fd *frontDoor) handleClientMsg(c *wire.Conn, msg wire.Msg) {
	switch msg := msg.(type) {
	case wire.SubmitJob:
		fd.submit(c, msg)
	case wire.CancelJob:
		fd.cancelJob(msg.JobID)
	case wire.JobQuery:
		fd.queryJob(c, msg)
	}
}

// queryJob answers a point-in-time job-status read from the control-plane
// state machine (thread-safe; no loop crossing). A job the state machine
// has no record of — never submitted, or dropped across a restart whose
// journal was compacted — gets a terminal StateNotFound, so a client
// polling a lost job gets a definitive answer instead of waiting forever.
func (fd *frontDoor) queryJob(c *wire.Conn, q wire.JobQuery) {
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
	fd.m.send(c, wire.JobStatus{
		SubmitID: q.SubmitID, JobID: q.JobID, State: state, Detail: detail,
	})
}

func (fd *frontDoor) reject(c *wire.Conn, submitID int64, reason string) {
	fd.Ingest.ObserveRejection()
	fd.m.send(c, wire.SubmitAck{SubmitID: submitID, Err: reason})
}

// submit runs on the client's read goroutine: intake control (drain, cap),
// then the workload build, then the crossing onto the control loop, where
// bindJob acks the job as it is queued.
func (fd *frontDoor) submit(c *wire.Conn, msg wire.SubmitJob) {
	if reason := fd.accept(); reason != "" {
		fd.reject(c, msg.SubmitID, reason)
		return
	}
	bj, err := workload.Describe(msg.Workload, msg.Params)
	if err != nil {
		if fd.settle() {
			fd.m.Sys.Drv.Send(fd.maybeFinishDrain)
		}
		fd.reject(c, msg.SubmitID, err.Error())
		return
	}
	bj.Spec.Tenant = msg.Tenant
	rj := fd.m.newRow(msg.Workload, bj)
	rj.client, rj.submitID = c, msg.SubmitID
	fd.m.submit(rj, func() { fd.bindJob(rj, msg) })
}

// accept counts a submission onto the intake, or returns why it is refused.
func (fd *frontDoor) accept() string {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	switch {
	case fd.draining:
		return "draining"
	case fd.intake >= intakeCap:
		return "intake full"
	}
	fd.intake++
	return ""
}

// settle takes a submission off the intake — it is queued on the loop, or
// its build failed — and reports whether a drain has begun.
func (fd *frontDoor) settle() (draining bool) {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	fd.intake--
	return fd.draining
}

// bindJob runs on the control loop once the job's row is in the table — its
// stable wire ID minted — and the job in its tenant queue, before the
// admission pass that can admit it. It records the submission in the
// control-plane state and acks it; a fenced master records nothing and so
// acks nothing. A job that reaches the loop once a drain has begun, possibly
// after the drain's cancel pass, is cancelled here.
func (fd *frontDoor) bindJob(rj *RemoteJob, msg wire.SubmitJob) {
	fd.m.rec.record(cpstate.JobSubmitted{
		JobID: rj.id, Tenant: msg.Tenant, Workload: msg.Workload, Params: msg.Params,
	})
	fd.Ingest.ObserveSubmission()
	fd.m.send(rj.client, wire.SubmitAck{SubmitID: msg.SubmitID, JobID: rj.id})
	if fd.settle() {
		fd.cancel(rj)
		fd.maybeFinishDrain()
	}
}

// sendStatus streams one lifecycle update to the client that submitted rj,
// if one did (a held job has none). A full client queue drops the frame
// (counted): no buffering, no failed link.
func (fd *frontDoor) sendStatus(rj *RemoteJob, state byte, detail string) {
	if rj.client != nil {
		fd.m.send(rj.client, wire.JobStatus{
			SubmitID: rj.submitID, JobID: rj.id, State: state, Detail: detail,
		})
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
