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
// measured record per monotask, and handleTaskDone commits each record's
// outputs to the master's canonical store and feeds its (bytes, seconds)
// sample into the worker's rate monitor — the §4.2.2 feedback loop closed
// over a socket.
//
// Everything here is owned by the control loop: StartTask and the abort
// hooks run on it by the executor contract, and completions are relayed onto
// it through the driver inbox. Which workers hold which committed partition —
// the §4.3 checkpoint metadata fetch specs are built from — is not here: the
// Commit event writes it into the control-plane state (State.Origins), and
// buildFetches reads it there.
type remoteExecutor struct {
	m *Master

	seq uint64
	// dispatches holds the record the master awaits for every monotask of a
	// dispatched task that is not a replay, under its at-most-once token.
	dispatches map[cpstate.MTKey]*dispatchState
	// fetchRefs counts, per origin worker, the in-flight tasks whose fetch
	// specs name it as a peer-to-peer holder. A drain completes only once
	// the worker's count reaches zero: until then some agent may still be
	// pulling from its shuffle server, and cutting it loose would turn a
	// graceful drain into fetch fallbacks.
	fetchRefs map[int]int
	// recovered marks the commits inherited from the previous generation
	// (State.Commits) whose every output the takeover pulled back into the
	// canonical store: the master completes such a monotask itself, from the
	// checkpoint, once it is ready, and its task's frame names it as a
	// replay (§4.3 across masters).
	recovered map[cpstate.MTKey]bool
}

// taskState is one dispatched task: what its monotasks' records share.
type taskState struct {
	worker int
	jobID  int64
	done   func(mt *dag.Monotask, bytes, seconds float64)
	sentAt time.Time
	// pending counts the records still awaited.
	pending int
	// fetchOrigins are the peer workers the task's fetch specs name — the
	// holds counted in remoteExecutor.fetchRefs, released when the last
	// record arrives or the task is aborted.
	fetchOrigins []int
	// precommits are the task's recovered monotasks, which the master
	// completes itself as each becomes ready.
	precommits []*dag.Monotask
	aborted    bool
}

// dispatchState is one awaited record.
type dispatchState struct {
	seq     uint64
	task    *taskState
	mt      *dag.Monotask
	release func()
}

func newRemoteExecutor(m *Master) *remoteExecutor {
	return &remoteExecutor{
		m: m,
		// Sequence numbers are namespaced by generation (gen g starts at
		// (g-1)<<32), so a commit token minted by a dead master can never
		// collide with one minted after takeover — PR 4's at-most-once
		// (jobID, mtID, seq) discipline extended across generations.
		seq:        uint64(m.gen-1) << 32,
		dispatches: make(map[cpstate.MTKey]*dispatchState),
		fetchRefs:  make(map[int]int),
		recovered:  make(map[cpstate.MTKey]bool),
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
		link.conn.Send(wire.Shutdown{})
	}
	for _, link := range slices.Concat(e.m.workers, joining) {
		if link != nil {
			link.conn.CloseGraceful()
		}
	}
}

// StartTask implements core.TaskExecutor. Runs on the control loop: it
// names every monotask of the task in one Task frame — a fresh sequence
// number (the at-most-once commit token) for each that runs, Seq 0 for a
// replay (committed already, or recovered from the previous generation's
// checkpoint) — with one fetch spec per input-partition holder, preceded by
// the job's Prepare on the worker's first task of the job. A CPU monotask
// holds a core of its worker from here until its record arrives, so
// placement sees real occupancy. Nothing is journaled: in-flight work is this
// executor's alone, and a takeover voids it.
func (e *remoteExecutor) StartTask(w *core.Worker, j *core.Job, t *dag.Task, prio float64, done func(mt *dag.Monotask, bytes, seconds float64)) (abort func()) {
	rj := e.m.jobs.of(j)
	if rj == nil {
		panic(fmt.Sprintf("remote: job %d has no row (use Master.Submit or the front door, not Sys.Submit)", j.ID))
	}
	ts := &taskState{worker: w.ID, jobID: rj.id, done: done, sentAt: time.Now()}
	frame := wire.Task{JobID: rj.id, Prio: prio, MTs: make([]wire.Dispatch, len(t.Monotasks))}
	plan := rj.rt().Plan()
	open := e.m.rec.read(func(cp *cpstate.State) {
		for i, mt := range t.Monotasks {
			frame.MTs[i] = wire.Dispatch{
				JobID: rj.id, MTID: int32(mt.ID), EstInput: mt.EstInput,
				Fetches: buildFetches(cp, rj.id, localrt.InputParts(plan, mt), w.ID),
			}
		}
	})
	for i, mt := range t.Monotasks {
		key := cpstate.MTKey{Job: rj.id, MT: int32(mt.ID)}
		switch {
		case mt.State == dag.MTDone:
		case e.recovered[key]:
			delete(e.recovered, key)
			ts.precommits = append(ts.precommits, mt)
		default:
			e.seq++
			frame.MTs[i].Seq = e.seq
			e.dispatches[key] = &dispatchState{seq: e.seq, task: ts, mt: mt, release: core.HoldCore(w, mt)}
			ts.pending++
		}
		for _, sp := range frame.MTs[i].Fetches {
			if o := int(sp.Origin); sp.Origin >= 0 && !slices.Contains(ts.fetchOrigins, o) {
				ts.fetchOrigins = append(ts.fetchOrigins, o)
			}
		}
	}
	// Recovered monotasks complete here, posted so they land outside the
	// scheduler's placement pass like any real completion; the worker-
	// measured seconds re-feed the rate monitors as a normal sample.
	if len(ts.precommits) > 0 {
		e.m.Sys.Drv.Loop().Post(func() { e.settlePrecommits(ts) })
	}
	link := e.m.link(w.ID)
	if ts.pending == 0 {
		// Every monotask left is recovered: nothing runs on the worker.
		ts.fetchOrigins = nil
	} else {
		for _, o := range ts.fetchOrigins {
			e.fetchRefs[o]++
		}
		for range ts.pending {
			e.m.Transport.ObserveDispatch(w.ID)
		}
		// No Task after the fence: commits since the fence never became
		// origins, and an agent fed from those frozen fetch specs would keep a
		// partial output for the next generation to reuse (DESIGN §13).
		sent := link != nil && open
		// A worker learns a job from its first task: this is the one place a
		// Prepare is sent, once per (worker, job), just ahead of the Task on
		// the same FIFO connection. A re-attached or new slot holds nothing yet.
		if sent && !slices.Contains(rj.prepared, w.ID) {
			rj.prepared = append(rj.prepared, w.ID)
			// Always found: every source records JobSubmitted before it submits the row.
			js, _ := e.m.rec.job(rj.id)
			sent = link.conn.Send(wire.Prepare{JobID: rj.id, Workload: js.Workload, Params: js.Params})
		}
		if !sent || !link.conn.Send(frame) {
			// The conn died under us (or Close is about to cut it); schedule the
			// failure instead of handling it reentrantly inside the scheduler's
			// placement pass. The abort hook below reclaims this task when
			// FailWorker fires.
			cause := fmt.Errorf("remote: dispatch to worker %d failed", w.ID)
			e.m.Sys.Drv.Loop().Post(func() { e.m.failWorker(w.ID, cause) })
		}
	}

	return func() {
		if ts.aborted {
			return
		}
		ts.aborted = true
		var first *dispatchState
		for _, mt := range t.Monotasks {
			key := cpstate.MTKey{Job: rj.id, MT: int32(mt.ID)}
			if st := e.dispatches[key]; st != nil && st.task == ts {
				delete(e.dispatches, key)
				st.release()
				if first == nil {
					first = st
				}
			}
		}
		e.releaseFetchRefs(ts)
		// A recovered monotask not yet completed stays recovered for the
		// task's next placement.
		for _, mt := range ts.precommits {
			e.recovered[cpstate.MTKey{Job: rj.id, MT: int32(mt.ID)}] = true
		}
		// Best-effort: tell the agent to discard the in-flight task; any of
		// its awaited monotasks names it. If the connection is gone the seq
		// check drops the records.
		if link != nil && first != nil {
			link.conn.Send(wire.Abort{JobID: rj.id, MTID: int32(first.mt.ID), Seq: first.seq})
		}
	}
}

// settlePrecommits completes, from the checkpoint, each of the task's
// recovered monotasks that is ready, until none is. Loop-owned.
func (e *remoteExecutor) settlePrecommits(ts *taskState) {
	for i := 0; i < len(ts.precommits) && !ts.aborted; {
		mt := ts.precommits[i]
		if mt.State != dag.MTReady {
			i++
			continue
		}
		ts.precommits = slices.Delete(ts.precommits, i, i+1)
		i = 0
		var seconds float64
		e.m.rec.read(func(st *cpstate.State) {
			seconds = st.Commits[cpstate.MTKey{Job: ts.jobID, MT: int32(mt.ID)}].Seconds
		})
		e.m.Journal.ObservePrecommit()
		ts.done(mt, mt.InputBytes, seconds)
	}
}

// buildFetches names a holder for every input partition a monotask of job
// jobID, running on worker workerID, reads — a pure function of the
// control-plane state. No recorded origin means the partition is a job input
// (made by the reading monotask itself), empty, or written inside the
// monotask's own task (the agent holds it, or re-runs its replayed producer):
// nothing to fetch. An origin that no longer serves peers (failed, or
// drained: its contributions now live only in the canonical store) redirects
// the whole partition to the master's store, which holds every committed
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

// handleTaskDone commits a task's records in the order they came, producers
// before consumers. Runs on the control loop. The (key, seq, worker) check
// makes each commit at-most-once: records from aborted or re-dispatched
// attempts are dropped, so a monotask's outputs enter the checkpoint exactly
// once and its rate sample is counted once. The frame is one sample of the
// task's round trip.
func (e *remoteExecutor) handleTaskDone(workerID int, td wire.TaskDone) {
	var task *taskState
	for _, c := range td.Records {
		ts, ok := e.commit(workerID, c)
		if !ok {
			return
		}
		if ts != nil {
			task = ts
		}
	}
	if task != nil {
		e.m.Transport.ObserveRTT(workerID, time.Since(task.sentAt).Seconds())
	}
}

// commit commits one record, returning its task (nil for a stale record)
// and false once the run has failed.
func (e *remoteExecutor) commit(workerID int, c wire.Complete) (*taskState, bool) {
	key := cpstate.MTKey{Job: c.JobID, MT: c.MTID}
	st := e.dispatches[key]
	if st == nil || st.seq != c.Seq || st.task.worker != workerID {
		// Stale: aborted, re-dispatched, duplicate, or minted by a previous
		// generation (seq namespaces never collide across takeovers, so an
		// old master's token can never match a new dispatch).
		e.m.Journal.ObserveDupCommit()
		return nil, true
	}
	delete(e.dispatches, key)
	st.release()
	ts := st.task
	if ts.pending--; ts.pending == 0 {
		e.releaseFetchRefs(ts)
	}
	if c.Err != "" {
		e.m.Sys.Fail(fmt.Errorf("remote: worker %d: %v failed: %s", workerID, st.mt, c.Err))
		return nil, false
	}
	rj := e.m.jobs.get(c.JobID)
	writes := make([]cpstate.CommitWrite, len(c.Writes))
	for i, w := range c.Writes {
		ds := rj.rt().DatasetByID(int(w.DatasetID))
		if ds == nil {
			e.m.Sys.Fail(fmt.Errorf("remote: worker %d wrote unknown dataset %d", workerID, w.DatasetID))
			return nil, false
		}
		// Checkpoint at the master (§4.3): completed monotask outputs that
		// leave their task are durable here even if every producing agent
		// later dies. The blob is stored exactly as the worker encoded it — no
		// decode, no re-encode — so fallback fetches serve byte-identical
		// contributions, and the rows materialize lazily only if the master
		// itself reads them.
		rj.rt().InsertEncoded(ds, int(w.Part), int(c.MTID), w.Rows, w.Flags, int(w.RawLen))
		writes[i] = cpstate.CommitWrite{DS: w.DatasetID, Part: w.Part}
	}
	rj.memPeak += c.MemPeak
	// Recording the commit is what makes this worker an origin of each
	// partition written.
	e.m.rec.record(cpstate.Commit{
		JobID: c.JobID, MTID: c.MTID, Worker: int32(workerID), Seq: c.Seq,
		Seconds: c.Seconds, Writes: writes,
	})
	e.m.Transport.ObserveCompletion(workerID, c.FetchedWireBytes, c.FetchedRawBytes,
		int(c.FetchRetries), int(c.FetchFallbacks))
	ts.done(st.mt, st.mt.InputBytes, c.Seconds)
	e.settlePrecommits(ts)
	return ts, true
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
