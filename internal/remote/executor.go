package remote

import (
	"fmt"
	"slices"
	"time"

	"ursa/internal/core"
	"ursa/internal/cpstate"
	"ursa/internal/dag"
	"ursa/internal/localrt"
	"ursa/internal/remote/workload"
	"ursa/internal/wire"
)

// remoteExecutor implements live.Backend by shipping placed tasks to worker
// agents: StartTask encodes one Task frame naming the task's monotasks and
// their input partitions' holders, the agent runs them in its own
// per-resource queues (§4.2.3) and answers with one TaskDone carrying a
// measured record per monotask, and handleTaskDone commits the task whole:
// every record's outputs into the master's canonical store, one
// TaskCommitted into the control-plane state, and each record's (bytes,
// seconds) sample into the worker's rate monitor — the §4.2.2 feedback loop
// closed over a socket.
//
// Everything here is owned by the control loop: StartTask and the abort
// hooks run on it by the executor contract, and completions are relayed onto
// it through the driver inbox. Which workers hold which committed partition —
// the §4.3 checkpoint metadata fetch specs are built from — is not here: the
// TaskCommitted event writes it into the control-plane state
// (State.Origins), and buildFetches reads it there.
type remoteExecutor struct {
	m *Master

	seq uint64
	// tasks holds every dispatched task whose TaskDone the master awaits,
	// under its at-most-once token.
	tasks map[uint64]*taskState
	// fetchRefs counts, per origin worker, the in-flight tasks whose fetch
	// specs name it as a peer-to-peer holder. A drain completes only once
	// the worker's count reaches zero: until then some agent may still be
	// pulling from its shuffle server, and cutting it loose would turn a
	// graceful drain into fetch fallbacks.
	fetchRefs map[int]int
	// recovered marks the tasks committed by the previous generation
	// (State.Commits) whose every output the takeover pulled back into the
	// canonical store: the master completes such a task itself, from the
	// checkpoint, when the scheduler places it (§4.3 across masters).
	recovered map[cpstate.TaskKey]bool
}

// taskState is one dispatched task.
type taskState struct {
	worker int
	jobID  int64
	task   *dag.Task
	done   func(mt *dag.Monotask, bytes, seconds float64)
	sentAt time.Time
	// holds release the cores the task's CPU monotasks hold on its worker.
	holds []func()
	// fetchOrigins are the peer workers the task's fetch specs name — the
	// holds counted in remoteExecutor.fetchRefs.
	fetchOrigins []int
}

func newRemoteExecutor(m *Master) *remoteExecutor {
	return &remoteExecutor{
		m: m,
		// Sequence numbers are namespaced by generation (gen g starts at
		// (g-1)<<32), so a commit token minted by a dead master can never
		// collide with one minted after takeover: a task commits at most once
		// across generations.
		seq:       uint64(m.gen-1) << 32,
		tasks:     make(map[uint64]*taskState),
		fetchRefs: make(map[int]int),
		recovered: make(map[cpstate.TaskKey]bool),
	}
}

// RegisterJob implements live.Backend: it configures the job's runtime as
// its checkpoint store — encode-once codec (checkpointed blobs are served to
// fallback fetches as stored) plus the optional spill budget. The job's row
// is created by whoever submitted it and knows its identity.
func (e *remoteExecutor) RegisterJob(rt *localrt.Runtime) {
	rt.SetCodec(workload.Codec{})
	if e.m.cfg.ShuffleMemBudget > 0 {
		rt.SetSpill(e.m.cfg.ShuffleMemBudget, e.m.cfg.ShuffleSpillDir)
	}
}

// Close implements live.Backend: called after the driver exits, it
// broadcasts Shutdown so agents drain and exit cleanly, those of slots whose
// loop step never ran included, and every later registration gets one too
// (Master.ended). Graceful close flushes the queued frame before the sockets
// drop.
func (e *remoteExecutor) Close() {
	e.m.mu.Lock()
	e.m.ended = true
	joining := e.m.joining
	e.m.mu.Unlock()
	e.m.broadcast(wire.Shutdown{}, attached)
	for _, link := range joining {
		e.m.send(link.conn, wire.Shutdown{})
	}
	for _, link := range slices.Concat(e.m.workers, joining) {
		if link != nil {
			link.conn.CloseGraceful()
		}
	}
}

// StartTask implements core.TaskExecutor. Runs on the control loop: it
// names every monotask of the task in one Task frame under a fresh sequence
// number, the task's at-most-once commit token, with one fetch spec per
// input-partition holder, preceded by the job's Prepare on the worker's first
// task of the job. A CPU monotask holds a core of its worker from here until
// the task's TaskDone arrives, so placement sees real occupancy. A task
// recovered from the previous generation's checkpoint is completed here
// instead, and sends nothing. Nothing is journaled: in-flight work is this
// executor's alone, and a takeover voids it.
func (e *remoteExecutor) StartTask(w *core.Worker, j *core.Job, t *dag.Task, prio float64, done func(mt *dag.Monotask, bytes, seconds float64)) (abort func()) {
	rj := e.m.jobs.of(j)
	if rj == nil {
		panic(fmt.Sprintf("remote: job %d has no row (use Master.Submit or the front door, not Sys.Submit)", j.ID))
	}
	if key := (cpstate.TaskKey{Job: rj.id, Task: int32(t.ID)}); e.recovered[key] {
		return e.completeRecovered(key, t, done)
	}
	e.seq++
	ts := &taskState{worker: w.ID, jobID: rj.id, task: t, done: done, sentAt: time.Now()}
	frame := wire.Task{JobID: rj.id, Seq: e.seq, Prio: prio, MTs: make([]wire.Dispatch, len(t.Monotasks))}
	plan := rj.rt().Plan()
	e.m.rec.read(func(cp *cpstate.State) {
		for i, mt := range t.Monotasks {
			frame.MTs[i] = wire.Dispatch{
				JobID: rj.id, MTID: int32(mt.ID), EstInput: mt.EstInput,
				Fetches: buildFetches(cp, rj.id, localrt.InputParts(plan, mt), w.ID),
			}
		}
	})
	for i, mt := range t.Monotasks {
		ts.holds = append(ts.holds, core.HoldCore(w, mt))
		for _, sp := range frame.MTs[i].Fetches {
			if o := int(sp.Origin); sp.Origin >= 0 && !slices.Contains(ts.fetchOrigins, o) {
				ts.fetchOrigins = append(ts.fetchOrigins, o)
			}
		}
		e.m.Transport.ObserveDispatch(w.ID)
	}
	e.tasks[frame.Seq] = ts
	for _, o := range ts.fetchOrigins {
		e.fetchRefs[o]++
	}
	link := e.m.link(w.ID)
	sent := link != nil
	// A worker learns a job from its first task: this is the one place a
	// Prepare is sent, once per (worker, job), just ahead of the Task on
	// the same FIFO connection. A re-attached or new slot holds nothing yet.
	if sent && !slices.Contains(rj.prepared, w.ID) {
		rj.prepared = append(rj.prepared, w.ID)
		// Always found: every source records JobSubmitted before it submits the row.
		js, _ := e.m.rec.job(rj.id)
		sent = e.m.send(link.conn, wire.Prepare{JobID: rj.id, Workload: js.Workload, Params: js.Params})
	}
	if !sent || !e.m.send(link.conn, frame) {
		// The conn died under us, or the master is fenced and sends nothing:
		// schedule the failure instead of handling it reentrantly inside the
		// scheduler's placement pass. The abort hook below reclaims this task
		// when FailWorker fires.
		cause := fmt.Errorf("remote: dispatch to worker %d failed", w.ID)
		e.m.Sys.Drv.Loop().Post(func() { e.m.failWorker(w.ID, cause) })
	}

	return func() {
		if e.tasks[frame.Seq] != ts {
			return // settled, or aborted already
		}
		e.settle(frame.Seq, ts)
		// Best-effort: tell the agent to discard the in-flight task. If the
		// connection is gone the seq check drops its TaskDone.
		if link != nil {
			e.m.send(link.conn, wire.Abort{JobID: rj.id, Seq: frame.Seq})
		}
	}
}

// completeRecovered completes a recovered task from the checkpoint, posted
// so it lands outside the scheduler's placement pass like any real
// completion: every monotask in t.Monotasks order, which is topological and
// the order its commit lists them in, with the worker-measured seconds the
// commit journaled, re-fed to the rate monitors as a normal sample. A task
// aborted before then stays recovered for its next placement. Loop-owned.
func (e *remoteExecutor) completeRecovered(key cpstate.TaskKey, t *dag.Task, done func(mt *dag.Monotask, bytes, seconds float64)) (abort func()) {
	delete(e.recovered, key)
	settled := false
	e.m.Sys.Drv.Loop().Post(func() {
		if settled {
			return
		}
		settled = true
		var mts []cpstate.MTCommit
		e.m.rec.read(func(st *cpstate.State) { mts = st.Commits[key] })
		e.m.Journal.ObservePrecommit()
		for i, mt := range t.Monotasks {
			done(mt, mt.InputBytes, mts[i].Seconds)
		}
	})
	return func() {
		if !settled {
			settled = true
			e.recovered[key] = true
		}
	}
}

// buildFetches names a holder for every input partition a monotask of job
// jobID, running on worker workerID, reads — a pure function of the
// control-plane state. No recorded origin means the partition is a job input
// (made by the reading monotask itself), empty, or written inside the
// monotask's own task (the agent runs its producer first): nothing to
// fetch. An origin that no longer serves peers (failed, or drained: its
// contributions now live only in the canonical store) redirects the whole
// partition to the master's store, which holds every committed
// contribution (§4.3); its spec has Origin -1 and no address, because the
// agent reads the store at the master it registered with. A draining origin
// still serves. Otherwise each origin except the executing worker itself
// serves its own contribution, keeping the hot path peer-to-peer.
func buildFetches(st *cpstate.State, jobID int64, parts []localrt.DatasetPart, workerID int) []wire.FetchSpec {
	var out []wire.FetchSpec
	for _, dp := range parts {
		ds, part := int32(dp.Dataset.ID), int32(dp.Part)
		origins := st.Origins[cpstate.PartKey{Job: jobID, DS: ds, Part: part}]
		allServe := true
		for _, o := range origins {
			allServe = allServe && st.Worker(int(o)).ServesPeers()
		}
		if !allServe {
			out = append(out, wire.FetchSpec{DatasetID: ds, Part: part, Origin: -1})
			continue
		}
		for _, o := range origins {
			if int(o) == workerID {
				continue // the executing agent already holds its own writes
			}
			out = append(out, wire.FetchSpec{
				DatasetID: ds, Part: part, Origin: o, Addr: st.Worker(int(o)).ShuffleAddr,
			})
		}
	}
	return out
}

// handleTaskDone commits a task whole. Runs on the control loop. The (seq,
// worker) check makes the commit at-most-once: the TaskDone of an aborted,
// re-dispatched or duplicate attempt, or of one a previous generation sent
// (seq namespaces never collide across takeovers), is dropped, so a task's
// outputs enter the checkpoint exactly once and its rate samples count once.
// The records must name each monotask of the task once; a failed record
// fails the run. They commit, and complete, in the task's topological
// order. The frame is one sample of the task's round trip.
func (e *remoteExecutor) handleTaskDone(workerID int, td wire.TaskDone) {
	ts := e.tasks[td.Seq]
	if ts == nil || ts.worker != workerID || ts.jobID != td.JobID {
		e.m.Journal.ObserveDupCommit()
		return
	}
	e.settle(td.Seq, ts)
	e.m.Transport.ObserveRTT(workerID, time.Since(ts.sentAt).Seconds())
	mts := ts.task.Monotasks
	recs := make([]*wire.Complete, len(mts)) // in task order
	for i := range td.Records {
		c := &td.Records[i]
		k := slices.IndexFunc(mts, func(mt *dag.Monotask) bool { return mt.ID == int(c.MTID) })
		switch {
		case k < 0 || recs[k] != nil:
			e.m.Sys.Fail(fmt.Errorf("remote: worker %d: task %d of job %d reported monotask %d twice or not its own",
				workerID, ts.task.ID, td.JobID, c.MTID))
			return
		case c.Err != "":
			e.m.Sys.Fail(fmt.Errorf("remote: worker %d: %v failed: %s", workerID, mts[k], c.Err))
			return
		}
		recs[k] = c
	}
	if len(td.Records) != len(mts) {
		e.m.Sys.Fail(fmt.Errorf("remote: worker %d: task %d of job %d reported %d of its %d monotasks",
			workerID, ts.task.ID, td.JobID, len(td.Records), len(mts)))
		return
	}
	rj := e.m.jobs.get(td.JobID)
	commits := make([]cpstate.MTCommit, len(recs))
	for k, c := range recs {
		writes := make([]cpstate.CommitWrite, len(c.Writes))
		for i, w := range c.Writes {
			ds := rj.rt().DatasetByID(int(w.DatasetID))
			if ds == nil {
				e.m.Sys.Fail(fmt.Errorf("remote: worker %d wrote unknown dataset %d", workerID, w.DatasetID))
				return
			}
			// Checkpoint at the master (§4.3): completed monotask outputs
			// that leave their task are durable here even if every producing
			// agent later dies. The blob is stored exactly as the worker
			// encoded it — no decode, no re-encode — so fallback fetches serve
			// byte-identical contributions, and the rows materialize lazily
			// only if the master itself reads them.
			rj.rt().InsertEncoded(ds, int(w.Part), int(c.MTID), w.Rows, w.Flags, int(w.RawLen))
			writes[i] = cpstate.CommitWrite{DS: w.DatasetID, Part: w.Part}
		}
		rj.memPeak += c.MemPeak
		commits[k] = cpstate.MTCommit{MTID: c.MTID, Seconds: c.Seconds, Writes: writes}
	}
	// Recording the commit is what makes this worker an origin of each
	// partition written.
	e.m.rec.record(cpstate.TaskCommitted{
		JobID: td.JobID, Task: int32(ts.task.ID), Worker: int32(workerID), Seq: td.Seq, MTs: commits,
	})
	for k, c := range recs {
		e.m.Transport.ObserveCompletion(workerID, c.FetchedWireBytes, c.FetchedRawBytes,
			int(c.FetchRetries), int(c.FetchFallbacks))
		ts.done(mts[k], mts[k].InputBytes, c.Seconds)
	}
}

// settle retires a dispatched task, answered or aborted: it releases the
// cores its CPU monotasks held and its holds on its fetch origins.
func (e *remoteExecutor) settle(seq uint64, ts *taskState) {
	delete(e.tasks, seq)
	for _, release := range ts.holds {
		release()
	}
	e.releaseFetchRefs(ts)
}

// releaseFetchRefs drops a settled task's holds on its fetch origins.
// A draining worker whose last hold just dropped may now complete its
// drain. Loop-owned.
func (e *remoteExecutor) releaseFetchRefs(ts *taskState) {
	for _, o := range ts.fetchOrigins {
		if e.fetchRefs[o]--; e.fetchRefs[o] <= 0 {
			delete(e.fetchRefs, o)
			e.m.maybeFinishDrain(o)
		}
	}
	ts.fetchOrigins = nil
}

// migrateOrigins counts a drained worker's committed contributions: every
// partition listing it as an origin will now route to the canonical store
// (buildFetches sees WorkerDrained — origin lists are never rewritten,
// mirroring the failure path). Returns the partition count whose serving
// moved. Loop-owned.
func (e *remoteExecutor) migrateOrigins(workerID int) (parts int) {
	e.m.rec.read(func(st *cpstate.State) {
		for _, origins := range st.Origins {
			if slices.Contains(origins, int32(workerID)) {
				parts++
			}
		}
	})
	return parts
}
