package cpstate

import (
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

// MTKey identifies one monotask of one job.
type MTKey struct {
	Job int64
	MT  int32
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
	// Reserved is the admission reservation currently held (0 unless
	// Phase == PhaseAdmitted).
	Reserved float64
}

// WorkerState is one registry slot. Failed, Draining and Drained are
// one-way within a slot's lifetime: Draining marks a graceful drain in
// progress (no new dispatches, inflight work still commits), Drained marks
// it complete (the worker deregistered; origins referencing it redirect to
// the canonical store — unlike Failed, nothing was lost on the way out).
type WorkerState struct {
	ShuffleAddr string
	Cores       int32
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

// Placement is an in-flight dispatch.
type Placement struct {
	Worker int32
	Seq    uint64
}

// CommitState is an accepted completion.
type CommitState struct {
	Worker  int32
	Seq     uint64
	Seconds float64
	Writes  []CommitWrite
}

// State is the deterministic control-plane state: everything a standby
// needs to take over — jobs and their phases, the worker registry,
// in-flight placements, accepted commits and the partition origin map —
// derived purely from the event sequence. Maps are keyed by value types;
// Encode serializes them in sorted key order, so two States built from the
// same events are byte-identical.
type State struct {
	// Gen is the current master generation.
	Gen int64
	// Applied counts events applied since New.
	Applied uint64
	// LastSeq is the highest dispatch sequence number observed.
	LastSeq uint64
	// Jobs indexes jobs by wire-level job ID; Order preserves submission
	// order (the order a takeover master resubmits in).
	Jobs  map[int64]*JobState
	Order []int64
	// Workers is the registry, indexed by worker ID.
	Workers []WorkerState
	// InFlight holds dispatched-but-uncommitted monotasks.
	InFlight map[MTKey]Placement
	// Commits holds accepted completions for non-terminal jobs (terminal
	// jobs compact out — their outputs are consumed, nothing replays them).
	Commits map[MTKey]CommitState
	// Origins records which workers hold committed contributions for each
	// produced partition (sorted, unique) — the §4.3 checkpoint metadata.
	Origins map[PartKey][]int32
	// TenantReserved aggregates held reservations per tenant.
	TenantReserved map[string]float64
}

// New returns an empty state.
func New() *State {
	return &State{
		Jobs:           make(map[int64]*JobState),
		InFlight:       make(map[MTKey]Placement),
		Commits:        make(map[MTKey]CommitState),
		Origins:        make(map[PartKey][]int32),
		TenantReserved: make(map[string]float64),
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
// deterministic: same state, same event, same result — including float
// arithmetic order (tenant releases iterate jobs in submission order).
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
		js := st.Jobs[ev.JobID]
		if js == nil || js.Phase.Terminal() {
			return
		}
		js.Phase = PhaseAdmitted
		js.Reserved = ev.Reserved
		// A zero reservation holds nothing: like releaseReservation, leave
		// the tenant's entry alone, or it would outlive every job.
		if ev.Reserved != 0 {
			st.TenantReserved[js.Tenant] += ev.Reserved
		}
	case JobFinished:
		st.finishJob(ev.JobID, PhaseFinished)
	case JobCancelled:
		st.finishJob(ev.JobID, PhaseCancelled)
	case Placed:
		st.InFlight[MTKey{ev.JobID, ev.MTID}] = Placement{Worker: ev.Worker, Seq: ev.Seq}
		if ev.Seq > st.LastSeq {
			st.LastSeq = ev.Seq
		}
	case Commit:
		key := MTKey{ev.JobID, ev.MTID}
		delete(st.InFlight, key)
		st.Commits[key] = CommitState{
			Worker: ev.Worker, Seq: ev.Seq, Seconds: ev.Seconds,
			Writes: append([]CommitWrite(nil), ev.Writes...),
		}
		for _, w := range ev.Writes {
			st.addOrigin(PartKey{ev.JobID, w.DS, w.Part}, ev.Worker)
		}
		if ev.Seq > st.LastSeq {
			st.LastSeq = ev.Seq
		}
	case WorkerRegistered:
		for int(ev.Worker) >= len(st.Workers) {
			st.Workers = append(st.Workers, WorkerState{})
		}
		st.Workers[ev.Worker] = WorkerState{ShuffleAddr: ev.ShuffleAddr, Cores: ev.Cores}
	case WorkerFailed:
		if int(ev.Worker) < len(st.Workers) {
			st.Workers[ev.Worker].Failed = true
		}
	case WorkerDraining:
		if int(ev.Worker) < len(st.Workers) {
			st.Workers[ev.Worker].Draining = true
		}
	case WorkerDrained:
		if int(ev.Worker) < len(st.Workers) {
			st.Workers[ev.Worker].Drained = true
			st.Workers[ev.Worker].Draining = false
		}
	case WorkerJoined:
		for int(ev.Worker) >= len(st.Workers) {
			st.Workers = append(st.Workers, WorkerState{})
		}
		st.Workers[ev.Worker] = WorkerState{ShuffleAddr: ev.ShuffleAddr, Cores: ev.Cores}
	}
}

// applyGeneration is the takeover reset: authority changes hands, every
// in-flight dispatch is void (its socket died with the old master), and
// non-terminal jobs fall back to queued for re-admission by the new
// master's scheduler. Commits, origins and the registry persist — they are
// the checkpoint the new generation resumes from.
func applyGeneration(st *State, ev Generation) {
	st.Gen = ev.Gen
	for k := range st.InFlight {
		delete(st.InFlight, k)
	}
	for _, id := range st.Order {
		js := st.Jobs[id]
		if js.Phase.Terminal() {
			continue
		}
		st.releaseReservation(js)
		js.Phase = PhaseQueued
	}
}

func (st *State) finishJob(id int64, phase JobPhase) {
	js := st.Jobs[id]
	if js == nil || js.Phase.Terminal() {
		return
	}
	st.releaseReservation(js)
	js.Phase = phase
	// Compact: a terminal job's per-monotask state can never be replayed
	// into work again, so it leaves the live state (and with it, the next
	// snapshot).
	for k := range st.InFlight {
		if k.Job == id {
			delete(st.InFlight, k)
		}
	}
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

func (st *State) releaseReservation(js *JobState) {
	if js.Reserved == 0 {
		return
	}
	rem := st.TenantReserved[js.Tenant] - js.Reserved
	if rem == 0 {
		delete(st.TenantReserved, js.Tenant)
	} else {
		st.TenantReserved[js.Tenant] = rem
	}
	js.Reserved = 0
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

// stateVersion 2 added the Draining/Drained flags to the worker section.
const stateVersion byte = 2

// AppendEncoded appends the state's canonical encoding to dst. Two states
// built from the same event sequence encode byte-identically — the replay
// determinism tests compare exactly these bytes.
func (st *State) AppendEncoded(dst []byte) []byte {
	e := wire.NewEncoder(append(dst, stateMagic...))
	e.U8(stateVersion)
	e.I64(st.Gen)
	e.U64(st.Applied)
	e.U64(st.LastSeq)

	e.U32(uint32(len(st.Order)))
	for _, id := range st.Order {
		js := st.Jobs[id]
		e.I64(id)
		e.Str(js.Tenant)
		e.Str(js.Workload)
		e.Blob(js.Params)
		e.U8(byte(js.Phase))
		e.F64(js.Reserved)
	}

	e.U32(uint32(len(st.Workers)))
	for _, w := range st.Workers {
		e.Str(w.ShuffleAddr)
		e.I32(w.Cores)
		e.Bool(w.Failed)
		e.Bool(w.Draining)
		e.Bool(w.Drained)
	}

	mtKeys := make([]MTKey, 0, len(st.InFlight))
	for k := range st.InFlight {
		mtKeys = append(mtKeys, k)
	}
	sortMTKeys(mtKeys)
	e.U32(uint32(len(mtKeys)))
	for _, k := range mtKeys {
		p := st.InFlight[k]
		e.I64(k.Job)
		e.I32(k.MT)
		e.I32(p.Worker)
		e.U64(p.Seq)
	}

	mtKeys = mtKeys[:0]
	for k := range st.Commits {
		mtKeys = append(mtKeys, k)
	}
	sortMTKeys(mtKeys)
	e.U32(uint32(len(mtKeys)))
	for _, k := range mtKeys {
		c := st.Commits[k]
		e.I64(k.Job)
		e.I32(k.MT)
		e.I32(c.Worker)
		e.U64(c.Seq)
		e.F64(c.Seconds)
		e.U32(uint32(len(c.Writes)))
		for _, w := range c.Writes {
			e.I32(w.DS)
			e.I32(w.Part)
		}
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

	tenants := make([]string, 0, len(st.TenantReserved))
	for t := range st.TenantReserved {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	e.U32(uint32(len(tenants)))
	for _, t := range tenants {
		e.Str(t)
		e.F64(st.TenantReserved[t])
	}
	return e.Bytes()
}

func sortMTKeys(keys []MTKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Job != keys[j].Job {
			return keys[i].Job < keys[j].Job
		}
		return keys[i].MT < keys[j].MT
	})
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
	st.LastSeq = d.U64()

	njobs := d.Count(8 + 4 + 4 + 4 + 1 + 8)
	for i := 0; i < njobs && d.Err() == nil; i++ {
		id := d.I64()
		js := &JobState{
			Tenant: d.Str(), Workload: d.Str(),
			Params: append([]byte(nil), d.Blob()...),
			Phase:  JobPhase(d.U8()), Reserved: d.F64(),
		}
		st.Jobs[id] = js
		st.Order = append(st.Order, id)
	}

	nworkers := d.Count(4 + 4 + 1 + 1 + 1)
	for i := 0; i < nworkers && d.Err() == nil; i++ {
		st.Workers = append(st.Workers, WorkerState{
			ShuffleAddr: d.Str(), Cores: d.I32(), Failed: d.Bool(),
			Draining: d.Bool(), Drained: d.Bool(),
		})
	}

	nflight := d.Count(8 + 4 + 4 + 8)
	for i := 0; i < nflight && d.Err() == nil; i++ {
		k := MTKey{d.I64(), d.I32()}
		st.InFlight[k] = Placement{Worker: d.I32(), Seq: d.U64()}
	}

	ncommits := d.Count(8 + 4 + 4 + 8 + 8 + 4)
	for i := 0; i < ncommits && d.Err() == nil; i++ {
		k := MTKey{d.I64(), d.I32()}
		c := CommitState{Worker: d.I32(), Seq: d.U64(), Seconds: d.F64()}
		nw := d.Count(commitWriteMin)
		for j := 0; j < nw && d.Err() == nil; j++ {
			c.Writes = append(c.Writes, CommitWrite{DS: d.I32(), Part: d.I32()})
		}
		st.Commits[k] = c
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

	ntenants := d.Count(4 + 8)
	for i := 0; i < ntenants && d.Err() == nil; i++ {
		t := d.Str()
		st.TenantReserved[t] = d.F64()
	}

	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("cpstate: snapshot: %w", err)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("cpstate: snapshot: %d trailing bytes", d.Remaining())
	}
	return st, nil
}
