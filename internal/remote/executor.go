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

// remoteExecutor implements live.Backend by shipping monotasks to worker
// agents: Start encodes a Dispatch naming the input partitions' holders,
// the agent executes and reports a measured Complete, and handleComplete
// commits the outputs to the master's canonical store and feeds the
// (bytes, seconds) sample into the worker's rate monitor — the §4.2.2
// feedback loop closed over a socket.
//
// Everything here is owned by the control loop: Start and the abort hooks
// run on it by the executor contract, and completions are relayed onto it
// through the driver inbox. Which workers hold which committed partition —
// the §4.3 checkpoint metadata fetch specs are built from — is not here: the
// Commit event writes it into the control-plane state (State.Origins), and
// buildFetches reads it there.
type remoteExecutor struct {
	m *Master

	seq        uint64
	dispatches map[cpstate.MTKey]*dispatchState
	// fetchRefs counts, per origin worker, the in-flight dispatches whose
	// fetch specs name it as a peer-to-peer holder. A drain completes only
	// once the worker's count reaches zero: until then some agent may still
	// be pulling from its shuffle server, and cutting it loose would turn a
	// graceful drain into fetch fallbacks.
	fetchRefs map[int]int
	// recovered marks the commits inherited from the previous generation
	// (State.Commits) whose every output the takeover pulled back into the
	// canonical store: when the scheduler re-places such a monotask, Start
	// completes it from the checkpoint instead of re-dispatching (§4.3
	// across masters).
	recovered map[cpstate.MTKey]bool
}

type dispatchState struct {
	seq     uint64
	worker  int
	mt      *dag.Monotask
	done    func(bytes, seconds float64)
	release func()
	sentAt  time.Time
	// fetchOrigins are the peer workers this dispatch's fetch specs name —
	// the holds counted in remoteExecutor.fetchRefs.
	fetchOrigins []int
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
	rt.SetCodec(workload.Codec{Compress: e.m.cfg.Compress})
	if e.m.cfg.ShuffleMemBudget > 0 {
		rt.SetSpill(e.m.cfg.ShuffleMemBudget, e.m.cfg.ShuffleSpillDir)
	}
}

// Close implements live.Backend: called after the driver exits, it
// broadcasts Shutdown so agents drain and exit cleanly. Graceful close
// flushes the queued frame before the sockets drop.
func (e *remoteExecutor) Close() {
	e.m.broadcast(wire.Shutdown{}, attached)
	for _, link := range e.m.workers {
		if link != nil {
			link.conn.CloseGraceful()
		}
	}
}

// Start implements core.MonotaskExecutor. Runs on the control loop: it
// records the dispatch under a fresh sequence number (the at-most-once
// commit token), mirrors the in-process executor's core accounting so
// placement sees real occupancy, and ships the Dispatch with one fetch spec
// per input-partition holder.
func (e *remoteExecutor) Start(w *core.Worker, j *core.Job, mt *dag.Monotask, done func(bytes, seconds float64)) (abort func()) {
	rj := e.m.jobs.of(j)
	if rj == nil {
		panic(fmt.Sprintf("remote: job %d has no row (use Master.Submit or the front door, not Sys.Submit)", j.ID))
	}
	key := cpstate.MTKey{Job: rj.id, MT: int32(mt.ID)}

	// Precommit short-circuit: the previous generation already committed
	// this monotask and the takeover pulled its outputs into the canonical
	// store — complete it from the checkpoint instead of re-executing. The
	// completion is posted (not run inline) so it lands outside the
	// scheduler's placement pass, like any real completion; the worker-
	// measured seconds re-feed the rate monitors as a normal sample.
	if e.recovered[key] {
		delete(e.recovered, key)
		var seconds float64
		e.m.rec.read(func(st *cpstate.State) { seconds = st.Commits[key].Seconds })
		cancelled := false
		e.m.Sys.Drv.Loop().Post(func() {
			if cancelled {
				return
			}
			e.m.Journal.ObservePrecommit()
			done(mt.InputBytes, seconds)
		})
		return func() { cancelled = true }
	}

	e.seq++
	st := &dispatchState{
		seq: e.seq, worker: w.ID, mt: mt, done: done, release: core.HoldCore(w, mt),
		sentAt: time.Now(),
	}
	var fetches []wire.FetchSpec
	parts, storeAddr := localrt.InputParts(rj.rt().Plan(), mt), e.m.shuffleSrv.Addr()
	e.m.rec.read(func(cp *cpstate.State) { fetches = buildFetches(cp, rj.id, parts, w.ID, storeAddr) })
	for _, sp := range fetches {
		o := int(sp.Origin)
		if sp.Origin < 0 || slices.Contains(st.fetchOrigins, o) {
			continue
		}
		st.fetchOrigins = append(st.fetchOrigins, o)
		e.fetchRefs[o]++
	}
	e.dispatches[key] = st
	placed := e.m.rec.record(cpstate.Placed{
		JobID: key.Job, MTID: key.MT, Worker: int32(w.ID), Seq: st.seq,
	})

	d := wire.Dispatch{JobID: key.Job, MTID: key.MT, Seq: st.seq, Fetches: fetches}
	link := e.m.link(w.ID)
	e.m.Transport.ObserveDispatch(w.ID)
	// A placement the fenced recorder dropped is not dispatched: commits
	// since the fence never became origins, and an agent fed from those
	// frozen fetch specs would keep a partial output for the next generation
	// to reuse (DESIGN §13).
	if link == nil || !placed || !link.conn.Send(d) {
		// The conn died under us (or Close is about to cut it); schedule the
		// failure instead of handling it reentrantly inside the scheduler's
		// placement pass. The abort hook below reclaims this dispatch when
		// FailWorker fires.
		cause := fmt.Errorf("remote: dispatch to worker %d failed", w.ID)
		e.m.Sys.Drv.Loop().Post(func() { e.m.failWorker(w.ID, cause) })
	}

	return func() {
		if e.dispatches[key] != st {
			return
		}
		delete(e.dispatches, key)
		st.release()
		e.releaseFetchRefs(st)
		// Best-effort: tell the agent to discard the in-flight execution.
		// If the connection is gone the seq check drops the completion.
		if link != nil {
			link.conn.Send(wire.Abort{JobID: key.Job, MTID: key.MT, Seq: st.seq})
		}
	}
}

// buildFetches names a holder for every input partition a monotask of job
// jobID, running on worker workerID, reads — a pure function of the
// control-plane state. No recorded origin means the partition is a job input
// (or empty): the agent seeded it locally from the deterministic builder,
// nothing to fetch. An origin that no longer serves peers (failed, or
// drained: its contributions now live only in the canonical store) redirects
// the whole partition to the master's store at storeAddr, which holds every
// committed contribution (§4.3); a draining origin still serves. Otherwise
// each origin except the executing worker itself serves its own
// contribution, keeping the hot path peer-to-peer.
func buildFetches(st *cpstate.State, jobID int64, parts []localrt.DatasetPart, workerID int, storeAddr string) []wire.FetchSpec {
	var out []wire.FetchSpec
	for _, dp := range parts {
		ds, part := int32(dp.Dataset.ID), int32(dp.Part)
		origins := st.Origins[cpstate.PartKey{Job: jobID, DS: ds, Part: part}]
		allServe := true
		for _, o := range origins {
			allServe = allServe && st.Worker(int(o)).ServesPeers()
		}
		if !allServe {
			out = append(out, wire.FetchSpec{DatasetID: ds, Part: part, Origin: -1, Addr: storeAddr})
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

// handleComplete commits one completion. Runs on the control loop. The
// (key, seq, worker) check makes the commit at-most-once: completions from
// aborted or re-dispatched attempts are dropped, so a monotask's outputs
// enter the checkpoint exactly once and its rate sample is counted once.
func (e *remoteExecutor) handleComplete(workerID int, c wire.Complete) {
	key := cpstate.MTKey{Job: c.JobID, MT: c.MTID}
	st := e.dispatches[key]
	if st == nil || st.seq != c.Seq || st.worker != workerID {
		// Stale: aborted, re-dispatched, duplicate, or minted by a previous
		// generation (seq namespaces never collide across takeovers, so an
		// old master's token can never match a new dispatch).
		e.m.Journal.ObserveDupCommit()
		return
	}
	delete(e.dispatches, key)
	st.release()
	e.releaseFetchRefs(st)
	if c.Err != "" {
		e.m.Sys.Fail(fmt.Errorf("remote: worker %d: %v failed: %s", workerID, st.mt, c.Err))
		return
	}
	rj := e.m.jobs.get(c.JobID)
	writes := make([]cpstate.CommitWrite, len(c.Writes))
	for i, w := range c.Writes {
		ds := rj.rt().DatasetByID(int(w.DatasetID))
		if ds == nil {
			e.m.Sys.Fail(fmt.Errorf("remote: worker %d wrote unknown dataset %d", workerID, w.DatasetID))
			return
		}
		// Checkpoint at the master (§4.3): completed monotask outputs are
		// durable here even if every producing agent later dies. The blob is
		// stored exactly as the worker encoded it — no decode, no re-encode —
		// so fallback fetches serve byte-identical contributions, and the
		// rows materialize lazily only if the master itself reads them.
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
	e.m.Transport.ObserveCompletion(workerID, time.Since(st.sentAt).Seconds(),
		c.FetchedWireBytes, c.FetchedRawBytes, int(c.FetchRetries), int(c.FetchFallbacks))
	st.done(st.mt.InputBytes, c.Seconds)
}

// releaseFetchRefs drops a settled dispatch's holds on its fetch origins.
// A draining worker whose last hold just dropped may now complete its
// drain. Loop-owned.
func (e *remoteExecutor) releaseFetchRefs(st *dispatchState) {
	for _, o := range st.fetchOrigins {
		if e.fetchRefs[o]--; e.fetchRefs[o] <= 0 {
			delete(e.fetchRefs, o)
			e.m.maybeFinishDrain(o)
		}
	}
	st.fetchOrigins = nil
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
