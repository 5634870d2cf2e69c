package remote

import (
	"sync"

	"ursa/internal/cpstate"
	"ursa/internal/journal"
	"ursa/internal/metrics"
)

// recorder is the master's write path into the control-plane state machine:
// every mutation — job submitted/admitted/finished, monotask placed,
// commit accepted, worker registered/failed, generation bump — is recorded
// here as a typed cpstate.Event, applied to the canonical State, and (when
// a journal is configured) appended to the on-disk log in the same order.
// The mutex serializes producers from different goroutines (worker
// registration runs on handshake goroutines, placements and commits on the
// control loop), so the journal's append order IS the apply order and a
// standby replaying the log reconstructs byte-identical state.
//
// The recorder is always active — the state machine is the source of truth
// for generation, JobQuery answers and the failover tests even when nothing
// persists — journaling only adds durability.
type recorder struct {
	metrics *metrics.Journal

	mu        sync.Mutex
	state     *cpstate.State
	jnl       *journal.Journal // nil: in-memory only
	snapEvery int
	sinceSnap int
	err       error // first journal error; the state machine keeps going
	fenced    bool  // Close happened: no event reaches state or journal
}

func newRecorder(st *cpstate.State, jnl *journal.Journal, jm *metrics.Journal, snapEvery int) *recorder {
	if snapEvery <= 0 {
		snapEvery = 1024
	}
	return &recorder{state: st, jnl: jnl, metrics: jm, snapEvery: snapEvery}
}

// record applies one event and journals it. Journal write errors are sticky
// and surfaced via Err — the in-memory state machine stays authoritative,
// matching the no-journal mode's behavior.
func (r *recorder) record(ev cpstate.Event) {
	r.mu.Lock()
	if r.fenced {
		r.mu.Unlock()
		return
	}
	cpstate.Apply(r.state, ev)
	if r.jnl != nil {
		if _, err := r.jnl.Append(cpstate.AppendEvent(nil, ev)); err != nil && r.err == nil {
			r.err = err
		}
		r.sinceSnap++
		if r.sinceSnap >= r.snapEvery {
			r.sinceSnap = 0
			if err := r.jnl.Snapshot(r.state.AppendEncoded); err != nil {
				if r.err == nil {
					r.err = err
				}
			} else {
				r.metrics.ObserveSnapshot()
			}
		}
	}
	journaled := r.jnl != nil
	r.mu.Unlock()
	r.metrics.ObserveEvent(journaled)
}

// fence ends this master's authority over the state machine: every later
// record is dropped. Close calls it first, so the teardown's own
// observations — worker links dying because Close cut them — never reach
// the journal. That is exactly crash semantics: a primary that dies cannot
// journal the failures its death causes, and the standby must replay the
// registry as the primary last durably knew it, not as the teardown saw it.
func (r *recorder) fence() {
	r.mu.Lock()
	r.fenced = true
	r.mu.Unlock()
}

// Err returns the first journal write error, if any.
func (r *recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// StateBytes returns the canonical encoding of the current state — what the
// replay-determinism tests compare against an offline journal replay.
func (r *recorder) StateBytes() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state.AppendEncoded(nil)
}

// CommitCount returns how many accepted commits the live state holds.
func (r *recorder) CommitCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.state.Commits)
}

// JobPhase looks one job up by wire ID: (phase, true) if the state machine
// knows it, false if it never existed or predates the oldest retained
// snapshot — the JobQuery not-found answer.
func (r *recorder) JobPhase(jobID int64) (cpstate.JobPhase, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	js := r.state.Jobs[jobID]
	if js == nil {
		return 0, false
	}
	return js.Phase, true
}
