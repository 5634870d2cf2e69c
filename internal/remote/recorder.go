package remote

import (
	"sync"
	"sync/atomic"

	"ursa/internal/cpstate"
	"ursa/internal/journal"
	"ursa/internal/metrics"
)

// recorder is the master's write path into the control-plane state machine:
// every mutation a takeover reads back — job submitted/admitted/finished,
// commit accepted, worker registered/failed, generation bump — is recorded
// here as a typed cpstate.Event, applied to the canonical State, and (when
// a journal is configured) appended to the on-disk log in the same order.
// The mutex serializes producers from different goroutines (worker
// registration runs on handshake goroutines, commits on the control loop),
// so the journal's append order IS the apply order and a standby replaying
// the log reconstructs byte-identical state.
//
// The recorder is always active — the state it folds is the master's
// registry (worker lifecycle and addresses, partition origins, job identity
// and phase; DESIGN §13), read back through read/worker/job, even when
// nothing persists — journaling only adds durability.
type recorder struct {
	logf func(string, ...any)

	mu        sync.Mutex
	state     *cpstate.State
	applied0  uint64           // state.Applied when this master took the state over
	jnl       *journal.Journal // nil: in-memory only
	snapEvery uint64           // snapshot after every snapEvery events this master records
	err       error            // first journal error; the state machine keeps going
	fenced    atomic.Bool      // stored under mu: nothing reaches state or journal, no frame leaves
	fenceAt   uint64           // test hook: the fenceAt-th record since construction fences
}

func newRecorder(st *cpstate.State, jnl *journal.Journal, snapEvery int, logf func(string, ...any)) *recorder {
	return &recorder{state: st, applied0: st.Applied, jnl: jnl, snapEvery: uint64(snapEvery), logf: logf}
}

// record applies one event and journals it, and reports whether it did:
// false once the recorder is fenced. Since the master reads its registry
// back from the state, a dropped event is a decision that did not happen.
// Journal write errors are sticky and reported by fail — the in-memory state
// machine stays authoritative, matching the no-journal mode's behavior.
func (r *recorder) record(ev cpstate.Event) bool {
	r.mu.Lock()
	if r.fenced.Load() {
		r.mu.Unlock()
		return false
	}
	cpstate.Apply(r.state, ev)
	n := r.state.Applied - r.applied0
	var err error
	if r.jnl != nil {
		_, err = r.jnl.Append(cpstate.AppendEvent(nil, ev))
		if n%r.snapEvery == 0 {
			if serr := r.jnl.Snapshot(r.state.AppendEncoded); err == nil {
				err = serr
			}
		}
	}
	if n == r.fenceAt {
		r.fenced.Store(true)
	}
	r.mu.Unlock()
	if err != nil {
		r.fail(err)
	}
	return true
}

// fail keeps the journal's first error and makes it visible: one log line,
// and Err — which the journal stats line prints as err=1 — for Run and Close
// to return.
// Whether a primary that can no longer journal steps down is not decided here.
func (r *recorder) fail(err error) {
	r.mu.Lock()
	first := r.err == nil
	if first {
		r.err = err
	}
	r.mu.Unlock()
	if first {
		r.logf("master: journal failed, nothing recorded from here on is durable: %v", err)
	}
}

// fence ends this master's authority: every later record is dropped, and
// Master.send drops every frame once a record has been (the flag is stored
// under mu). Close calls it first, so the teardown's own observations —
// worker links dying because Close cut them — never reach the journal or a
// peer. That is exactly crash semantics: a primary that dies cannot journal
// the failures its death causes, nor send anything, and the standby must
// replay the registry as the primary last durably knew it.
func (r *recorder) fence() {
	r.mu.Lock()
	r.fenced.Store(true)
	r.mu.Unlock()
}

// Err returns the first journal write error, if any.
func (r *recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// owned reads the journal stats line's fields from their owners: generation
// and events applied since this master took the state over from the state,
// records appended, snapshots completed and bytes unflushed from the journal,
// and the failure from err. Under the lock, so events and appended agree.
func (r *recorder) owned() metrics.JournalOwned {
	r.mu.Lock()
	defer r.mu.Unlock()
	o := metrics.JournalOwned{
		Gen: r.state.Gen, Events: int(r.state.Applied - r.applied0), Failed: r.err != nil,
	}
	if r.jnl != nil {
		appends, _, snaps, depth := r.jnl.Stats()
		o.Appended, o.Snaps, o.Depth = int(appends), int(snaps), depth
	}
	return o
}

// read runs fn on the state under the recorder's lock — the master's read
// path into its own registry. On the control loop the lock is uncontended
// (handshake goroutines are the only other writer). fn must not keep st or
// anything reachable from it, and must not record.
func (r *recorder) read(fn func(st *cpstate.State)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(r.state)
}

// worker returns registry slot id's lifecycle and shuffle address.
func (r *recorder) worker(id int) (w cpstate.WorkerState) {
	r.read(func(st *cpstate.State) { w = st.Worker(id) })
	return w
}

// job returns one job's journaled identity and phase by wire ID; false if
// the job never existed or predates the oldest retained snapshot — the
// JobQuery not-found answer. Params is shared, not copied: nothing writes it.
func (r *recorder) job(id int64) (js cpstate.JobState, ok bool) {
	r.read(func(st *cpstate.State) {
		if p := st.Jobs[id]; p != nil {
			js, ok = *p, true
		}
	})
	return js, ok
}
