package cpstate

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"ursa/internal/wire"
)

// JobPhase is a job's lifecycle phase in the control-plane state.
type JobPhase byte

const (
	PhaseQueued    JobPhase = 0
	PhaseAdmitted  JobPhase = 1
	PhaseFinished  JobPhase = 2
	PhaseCancelled JobPhase = 3
)

// Terminal reports whether the phase is final.
func (p JobPhase) Terminal() bool { return p == PhaseFinished || p == PhaseCancelled }

// TaskKey identifies one task of one job.
type TaskKey struct {
	Job  int64
	Task int32
}

// PartKey identifies one produced partition of one job.
type PartKey struct {
	Job  int64
	DS   int32
	Part int32
}

// JobState is one job's durable control-plane record.
type JobState struct {
	Tenant   string
	Workload string
	Params   []byte
	Phase    JobPhase
}

// WorkerState is one registry slot. Failed, Draining and Drained are
// one-way within a slot's lifetime: Draining marks a graceful drain in
// progress (no new dispatches, inflight work still commits), Drained marks
// it complete (the worker deregistered; origins referencing it redirect to
// the canonical store — unlike Failed, nothing was lost on the way out).
type WorkerState struct {
	ShuffleAddr string
	Failed      bool
	Draining    bool
	Drained     bool
}

// Live reports whether the slot can still receive work.
func (w WorkerState) Live() bool { return !w.Failed && !w.Draining && !w.Drained }

// ServesPeers reports whether the worker's shuffle server still answers for
// the contributions it committed. A draining worker's does, until its drain
// completes; a failed or drained worker's partitions are read from the
// master's canonical store instead.
func (w WorkerState) ServesPeers() bool { return !w.Failed && !w.Drained }

// State is the deterministic control-plane state: everything a standby
// needs to take over — jobs and their phases, the worker registry, accepted
// commits and the partition origin map — derived purely from the event
// sequence. In-flight work is not here: it is the executor's, and it dies
// with the master that dispatched it. Maps are keyed by value types;
// Encode serializes them in sorted key order, so two States built from the
// same events are byte-identical.
type State struct {
	// Gen is the current master generation.
	Gen int64
	// Applied counts events applied since New.
	Applied uint64
	// Jobs indexes jobs by wire-level job ID; Order preserves submission
	// order (the order a takeover master resubmits in).
	Jobs  map[int64]*JobState
	Order []int64
	// Workers is the registry, indexed by worker ID.
	Workers []WorkerState
	// Commits holds the committed tasks of non-terminal jobs: what a
	// takeover needs to complete a task from the checkpoint (its writes) and
	// re-feed its rate samples. Terminal jobs compact out — their outputs
	// are consumed, nothing completes them again.
	Commits map[TaskKey][]MTCommit
	// Origins records which workers hold committed contributions for each
	// produced partition (sorted, unique) — the §4.3 checkpoint metadata.
	Origins map[PartKey][]int32
}

// New returns an empty state.
func New() *State {
	return &State{
		Jobs:    make(map[int64]*JobState),
		Commits: make(map[TaskKey][]MTCommit),
		Origins: make(map[PartKey][]int32),
	}
}

// Worker returns registry slot id, or the zero WorkerState (an empty, live
// slot) for an ID the registry has not seen.
func (st *State) Worker(id int) WorkerState {
	if id < 0 || id >= len(st.Workers) {
		return WorkerState{}
	}
	return st.Workers[id]
}

// MaxJobID returns the highest wire-level job ID ever submitted, 0 when
// none: a master mints new IDs above it.
func (st *State) MaxJobID() int64 {
	if len(st.Order) == 0 {
		return 0
	}
	return slices.Max(st.Order)
}

// Apply folds one event into the state. It is the only mutation path and is
// deterministic: same state, same event, same result. What a takeover
// never reads back — Placed, Commit, a JobAdmitted's reservation, a
// TaskCommitted's sequence number, a registration's cores — is not folded.
func Apply(st *State, ev Event) {
	st.Applied++
	switch ev := ev.(type) {
	case Generation:
		applyGeneration(st, ev)
	case JobSubmitted:
		if _, ok := st.Jobs[ev.JobID]; !ok {
			st.Order = append(st.Order, ev.JobID)
		}
		st.Jobs[ev.JobID] = &JobState{
			Tenant: ev.Tenant, Workload: ev.Workload,
			Params: append([]byte(nil), ev.Params...), Phase: PhaseQueued,
		}
	case JobAdmitted:
		if js := st.Jobs[ev.JobID]; js != nil && !js.Phase.Terminal() {
			js.Phase = PhaseAdmitted
		}
	case JobFinished:
		st.finishJob(ev.JobID, PhaseFinished)
	case JobCancelled:
		st.finishJob(ev.JobID, PhaseCancelled)
	case TaskCommitted:
		st.Commits[TaskKey{ev.JobID, ev.Task}] = ev.MTs
		for _, c := range ev.MTs {
			for _, w := range c.Writes {
				st.addOrigin(PartKey{ev.JobID, w.DS, w.Part}, ev.Worker)
			}
		}
	case WorkerRegistered:
		// A registration names an existing slot or the next one: any other ID
		// is none this build journals, and growing the registry to it would
		// let one record allocate without bound.
		if ev.Worker < 0 || int(ev.Worker) > len(st.Workers) {
			break
		}
		if int(ev.Worker) == len(st.Workers) {
			st.Workers = append(st.Workers, WorkerState{})
		}
		st.Workers[ev.Worker] = WorkerState{ShuffleAddr: ev.ShuffleAddr}
	case WorkerFailed:
		if w := st.slot(ev.Worker); w != nil {
			w.Failed = true
		}
	case WorkerDraining:
		if w := st.slot(ev.Worker); w != nil {
			w.Draining = true
		}
	case WorkerDrained:
		if w := st.slot(ev.Worker); w != nil {
			w.Drained, w.Draining = true, false
		}
	}
}

// slot returns registry slot id to update, nil for an ID the registry does
// not hold.
func (st *State) slot(id int32) *WorkerState {
	if id < 0 || int(id) >= len(st.Workers) {
		return nil
	}
	return &st.Workers[id]
}

// Replay folds a journal back into state: the snapshot (nil for none) and
// then every event of the tail, in order. It is the one replay a takeover
// and an offline check both run; an undecodable snapshot or event fails it.
func Replay(snapshot []byte, events [][]byte) (*State, error) {
	st := New()
	if snapshot != nil {
		var err error
		if st, err = DecodeState(snapshot); err != nil {
			return nil, err
		}
	}
	for i, p := range events {
		ev, err := DecodeEvent(p)
		if err != nil {
			return nil, fmt.Errorf("cpstate: replay event %d: %w", i, err)
		}
		Apply(st, ev)
	}
	return st, nil
}

// applyGeneration is the takeover reset: authority changes hands and
// non-terminal jobs fall back to queued for re-admission by the new
// master's scheduler. Commits, origins and the registry persist — they are
// the checkpoint the new generation resumes from.
func applyGeneration(st *State, ev Generation) {
	st.Gen = ev.Gen
	for _, js := range st.Jobs {
		if !js.Phase.Terminal() {
			js.Phase = PhaseQueued
		}
	}
}

func (st *State) finishJob(id int64, phase JobPhase) {
	js := st.Jobs[id]
	if js == nil || js.Phase.Terminal() {
		return
	}
	js.Phase = phase
	// Compact: a terminal job's commits can never be completed again, so
	// they leave the live state (and with it, the next snapshot).
	for k := range st.Commits {
		if k.Job == id {
			delete(st.Commits, k)
		}
	}
	for k := range st.Origins {
		if k.Job == id {
			delete(st.Origins, k)
		}
	}
}

func (st *State) addOrigin(key PartKey, worker int32) {
	list := st.Origins[key]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= worker })
	if i < len(list) && list[i] == worker {
		return
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = worker
	st.Origins[key] = list
}

// State snapshot encoding: magic + version, then every section in sorted
// key order. Snapshot payloads embed this byte-for-byte.
const stateMagic = "UCPS"

// stateVersion is bumped whenever the layout changes; DecodeState refuses
// every other version.
const stateVersion byte = 4

// AppendEncoded appends the state's canonical encoding to dst. Two states
// built from the same event sequence encode byte-identically — the replay
// determinism tests compare exactly these bytes.
func (st *State) AppendEncoded(dst []byte) []byte {
	e := wire.NewEncoder(append(dst, stateMagic...))
	e.U8(stateVersion)
	e.I64(st.Gen)
	e.U64(st.Applied)

	e.U32(uint32(len(st.Order)))
	for _, id := range st.Order {
		js := st.Jobs[id]
		e.I64(id)
		e.Str(js.Tenant)
		e.Str(js.Workload)
		e.Blob(js.Params)
		e.U8(byte(js.Phase))
	}

	e.U32(uint32(len(st.Workers)))
	for _, w := range st.Workers {
		e.Str(w.ShuffleAddr)
		e.Bool(w.Failed)
		e.Bool(w.Draining)
		e.Bool(w.Drained)
	}

	taskKeys := make([]TaskKey, 0, len(st.Commits))
	for k := range st.Commits {
		taskKeys = append(taskKeys, k)
	}
	sort.Slice(taskKeys, func(i, j int) bool {
		a, b := taskKeys[i], taskKeys[j]
		if a.Job != b.Job {
			return a.Job < b.Job
		}
		return a.Task < b.Task
	})
	e.U32(uint32(len(taskKeys)))
	for _, k := range taskKeys {
		e.I64(k.Job)
		e.I32(k.Task)
		appendMTCommits(e, st.Commits[k])
	}

	partKeys := make([]PartKey, 0, len(st.Origins))
	for k := range st.Origins {
		partKeys = append(partKeys, k)
	}
	sort.Slice(partKeys, func(i, j int) bool {
		a, b := partKeys[i], partKeys[j]
		if a.Job != b.Job {
			return a.Job < b.Job
		}
		if a.DS != b.DS {
			return a.DS < b.DS
		}
		return a.Part < b.Part
	})
	e.U32(uint32(len(partKeys)))
	for _, k := range partKeys {
		e.I64(k.Job)
		e.I32(k.DS)
		e.I32(k.Part)
		list := st.Origins[k]
		e.U32(uint32(len(list)))
		for _, o := range list {
			e.I32(o)
		}
	}
	return e.Bytes()
}

// DecodeState decodes an AppendEncoded payload (a journal snapshot).
// Malformed input errors out rather than panicking, and a decoded state
// re-encodes byte-identically.
func DecodeState(p []byte) (*State, error) {
	if len(p) < len(stateMagic)+1 || string(p[:len(stateMagic)]) != stateMagic {
		return nil, fmt.Errorf("cpstate: bad snapshot magic")
	}
	if p[len(stateMagic)] != stateVersion {
		return nil, fmt.Errorf("cpstate: unsupported snapshot version %d", p[len(stateMagic)])
	}
	d := wire.NewDecoder(p[len(stateMagic)+1:])
	st := New()
	st.Gen = d.I64()
	st.Applied = d.U64()

	njobs := d.Count(8 + 4 + 4 + 4 + 1)
	for i := 0; i < njobs && d.Err() == nil; i++ {
		id := d.I64()
		js := &JobState{
			Tenant: d.Str(), Workload: d.Str(),
			Params: append([]byte(nil), d.Blob()...),
			Phase:  JobPhase(d.U8()),
		}
		st.Jobs[id] = js
		st.Order = append(st.Order, id)
	}

	nworkers := d.Count(4 + 1 + 1 + 1)
	for i := 0; i < nworkers && d.Err() == nil; i++ {
		st.Workers = append(st.Workers, WorkerState{
			ShuffleAddr: d.Str(), Failed: d.Bool(), Draining: d.Bool(), Drained: d.Bool(),
		})
	}

	ncommits := d.Count(8 + 4 + 4)
	for i := 0; i < ncommits && d.Err() == nil; i++ {
		k := TaskKey{d.I64(), d.I32()}
		st.Commits[k] = decodeMTCommits(d)
	}

	norigins := d.Count(8 + 4 + 4 + 4)
	for i := 0; i < norigins && d.Err() == nil; i++ {
		k := PartKey{d.I64(), d.I32(), d.I32()}
		n := d.Count(4)
		var list []int32
		for j := 0; j < n && d.Err() == nil; j++ {
			list = append(list, d.I32())
		}
		st.Origins[k] = list
	}

	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("cpstate: snapshot: %w", err)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("cpstate: snapshot: %d trailing bytes", d.Remaining())
	}
	// Duplicate or unsorted keys decode but would not re-encode to p: no
	// encoder wrote them.
	if !bytes.Equal(st.AppendEncoded(nil), p) {
		return nil, fmt.Errorf("cpstate: snapshot: not canonical")
	}
	return st, nil
}
