package remote

import (
	"sort"
	"sync"

	"ursa/internal/core"
	"ursa/internal/live"
	"ursa/internal/localrt"
	"ursa/internal/remote/workload"
	"ursa/internal/wire"
)

// RemoteJob is the master's row for one job, and the handle Master.Submit
// returns. It holds only what cannot be journaled; name, params, tenant and
// phase are the control-plane state's (State.Jobs under the same wire ID,
// read through recorder.job).
type RemoteJob struct {
	// Built is the master's description of the workload (workload.Describe):
	// the master never makes a generated input.
	Built *workload.BuiltJob
	// Live is the scheduler-side job handle; its runtime doubles as the
	// canonical checkpoint store the completions populate. Set on the
	// control loop as the job is queued, when the row enters the table.
	Live *live.Job

	// id is the job's stable wire-level identity — what Prepare/Task
	// frames and control-plane events carry. It is decoupled from
	// core.Job.ID (a dense per-scheduler index) so a takeover master
	// resubmitting the backlog keeps every ID the workers and the journal
	// already hold. Real IDs start at 1; jobTable.add mints one for 0.
	id int64
	// client and submitID name the front-door submission that status frames
	// answer. client is nil for a held job — one whose caller holds this
	// handle (Master.Submit, a takeover's inherited backlog) — so its row and
	// store outlive the job, until Master.Close, and ResultRows can be read
	// after Run.
	client   *wire.Conn
	submitID int64

	// prepared lists the slots the job's Prepare was sent to: each got it
	// just ahead of its first Task of the job. Loop-owned.
	prepared []int

	// memPeak accumulates the workers' per-monotask memory high-water marks —
	// an aggregate-materialized-working-set proxy for the job's true peak.
	// Loop-owned.
	memPeak float64
	// memFactor is the reservation correction Built.Spec.MemEstimate carries
	// (newRow): what the corrector divides out to fold memPeak against the
	// workload's declared estimate.
	memFactor float64
}

// ResultRows returns the job's output rows (with the workload's Finish
// post-processing applied) after the run completes. The canonical store
// holds checkpointed completions as encoded (possibly spilled) blobs, so
// the read itself can fail.
func (j *RemoteJob) ResultRows() ([]localrt.Row, error) {
	rows, err := j.Live.RowsErr(j.Built.Output)
	if err != nil {
		return nil, err
	}
	if j.Built.Finish != nil {
		return j.Built.Finish(rows)
	}
	return rows, nil
}

func (j *RemoteJob) rt() *localrt.Runtime { return j.Live.Runtime() }

// jobTable is the master's one index of jobs: by wire ID (frames, events,
// the shuffle server's resolver — hence the mutex) and by scheduler job (the
// core's hooks and the executor's StartTask).
type jobTable struct {
	mu     sync.Mutex
	byID   map[int64]*RemoteJob
	byCore map[*core.Job]*RemoteJob
	lastID int64
}

// newJobTable returns an empty table minting wire IDs above lastID — the
// highest the control-plane state has seen, so a takeover master never
// reissues one.
func newJobTable(lastID int64) *jobTable {
	return &jobTable{
		byID:   make(map[int64]*RemoteJob),
		byCore: make(map[*core.Job]*RemoteJob),
		lastID: lastID,
	}
}

// mint returns a fresh wire ID.
func (t *jobTable) mint() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastID++
	return t.lastID
}

// add indexes j, minting its wire ID unless it already carries one.
func (t *jobTable) add(j *RemoteJob) {
	if j.id == 0 {
		j.id = t.mint()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byID[j.id] = j
	t.byCore[j.Live.Core] = j
}

func (t *jobTable) remove(j *RemoteJob) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.byID, j.id)
	delete(t.byCore, j.Live.Core)
}

func (t *jobTable) get(id int64) *RemoteJob {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byID[id]
}

func (t *jobTable) of(c *core.Job) *RemoteJob {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byCore[c]
}

// all returns every row in wire-ID order, which is submission order.
func (t *jobTable) all() []*RemoteJob {
	t.mu.Lock()
	out := make([]*RemoteJob, 0, len(t.byID))
	for _, j := range t.byID {
		out = append(out, j)
	}
	t.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
}
