// Package cpstate is the master's control-plane state machine, carved out
// of remote.Master so it can be journaled and replayed: every mutation the
// control plane performs that a takeover reads back — a job submitted,
// admitted, finished or cancelled; a task committed; a worker
// registered, draining, drained or failed; a generation bump at
// takeover — is a typed Event, and the only way state changes is the pure
// Apply(state, event) function. The networking layer reduces to translating
// frames into events.
//
// Determinism is the whole contract: applying the same event sequence to a
// fresh State always produces byte-identical Encode output, so a standby
// master that replays the journal (snapshot + tail) reconstructs exactly
// the state the primary had applied. Events and State use the internal/wire
// codec primitives — fixed-width big-endian fields, length-prefixed
// strings, defensive decoding (no panic, no unbounded preallocation on
// adversarial input; see FuzzDecodeEvent).
package cpstate

import (
	"fmt"

	"ursa/internal/wire"
)

// Event type bytes. Zero is reserved so an all-zero record is invalid.
const (
	evGeneration       byte = 1
	evJobSubmitted     byte = 2
	evJobAdmitted      byte = 3
	evJobFinished      byte = 4
	evJobCancelled     byte = 5
	evPlaced           byte = 6
	evCommit           byte = 7
	evWorkerRegistered byte = 8
	evWorkerFailed     byte = 9
	evWorkerDraining   byte = 10
	evWorkerDrained    byte = 11
	evTaskCommitted    byte = 13
)

// Event is one control-plane mutation. Implementations are value types:
// an event is immutable once recorded.
type Event interface {
	typ() byte
	encode(e *wire.Encoder)
}

// Generation marks a master taking authority: gen 1 on a fresh journal,
// +1 at every standby takeover. Applying it returns non-terminal jobs to
// queued for re-admission, while commits, origins and the worker registry
// survive.
type Generation struct {
	Gen int64
}

// JobSubmitted records one job entering the control plane. JobID is the
// stable wire-level job identity (what Prepare/Task frames carry), and
// (Workload, Params) is the cross-process plan identity: a takeover master
// re-runs the same deterministic builder, so every dataset and monotask ID
// in the replayed state still matches what the workers hold.
type JobSubmitted struct {
	JobID    int64
	Tenant   string
	Workload string
	Params   []byte
}

// JobAdmitted records admission under the memory reservation. Reserved, the
// reservation the scheduler granted (§4.2.2), is encoded but not folded: the
// scheduler owns reservations, and a takeover re-admits.
type JobAdmitted struct {
	JobID    int64
	Reserved float64
}

// JobFinished marks a job terminal; its commits and origins compact out of
// the live state.
type JobFinished struct {
	JobID int64
}

// JobCancelled marks a queued job terminally cancelled.
type JobCancelled struct {
	JobID int64
}

// Placed is a monotask dispatched to a worker under a fresh sequence number.
// No master records it any more: in-flight work is the executor's alone and
// void at takeover. It stays decodable, and Apply ignores it.
type Placed struct {
	JobID  int64
	MTID   int32
	Worker int32
	Seq    uint64
}

// CommitWrite names one partition a committed monotask produced.
type CommitWrite struct {
	DS   int32
	Part int32
}

// MTCommit is one monotask of a committed task: Seconds is the
// worker-measured execution time (the §4.2.2 rate sample, re-fed when a
// takeover completes the task from the checkpoint) and Writes the
// partitions it checkpointed.
type MTCommit struct {
	MTID    int32
	Seconds float64
	Writes  []CommitWrite
}

// TaskCommitted records an accepted TaskDone: task Task of the job ran whole
// on Worker, and MTs names each of its monotasks in the task's order
// (dag.Task.Monotasks, producers first), its writes now checkpointed in the
// master's canonical store and Worker an origin of each. Seq, the task's
// at-most-once token, is encoded but not folded.
type TaskCommitted struct {
	JobID  int64
	Task   int32
	Worker int32
	Seq    uint64
	MTs    []MTCommit
}

// Commit is one monotask's accepted completion. No master records it any
// more: a task commits whole, as one TaskCommitted. It stays decodable, and
// Apply ignores it.
type Commit struct {
	JobID   int64
	MTID    int32
	Worker  int32
	Seq     uint64
	Seconds float64
	Writes  []CommitWrite
}

// WorkerRegistered records a registration, the one way into the registry:
// the worker claimed slot Worker (a fresh master's first slots, or its own
// slot re-attached after a failover) or appended it past every slot before,
// and serves peers at ShuffleAddr. Cores is encoded but not folded: the agent
// re-advertises it at every registration.
type WorkerRegistered struct {
	Worker      int32
	ShuffleAddr string
	Cores       int32
}

// WorkerFailed records a worker declared dead (heartbeat loss, torn
// connection). Its registry slot stays — origins referencing it route
// fetches to the canonical store — but it never receives work again.
type WorkerFailed struct {
	Worker int32
}

// WorkerDraining records the start of a graceful drain: the worker stops
// receiving new dispatches but keeps executing (and committing) what it
// already holds. A standby replaying this event excludes the worker from
// placement exactly as the primary did.
type WorkerDraining struct {
	Worker int32
}

// WorkerDrained records drain completion: every inflight monotask on the
// worker committed, its shuffle partitions are covered by the master's
// canonical store, and it deregistered. The slot stays (origins referencing
// it redirect to the canonical store) but it never receives work again.
type WorkerDrained struct {
	Worker int32
}

func (Generation) typ() byte       { return evGeneration }
func (JobSubmitted) typ() byte     { return evJobSubmitted }
func (JobAdmitted) typ() byte      { return evJobAdmitted }
func (JobFinished) typ() byte      { return evJobFinished }
func (JobCancelled) typ() byte     { return evJobCancelled }
func (Placed) typ() byte           { return evPlaced }
func (Commit) typ() byte           { return evCommit }
func (TaskCommitted) typ() byte    { return evTaskCommitted }
func (WorkerRegistered) typ() byte { return evWorkerRegistered }
func (WorkerFailed) typ() byte     { return evWorkerFailed }
func (WorkerDraining) typ() byte   { return evWorkerDraining }
func (WorkerDrained) typ() byte    { return evWorkerDrained }

func (ev Generation) encode(e *wire.Encoder) { e.I64(ev.Gen) }

func (ev JobSubmitted) encode(e *wire.Encoder) {
	e.I64(ev.JobID)
	e.Str(ev.Tenant)
	e.Str(ev.Workload)
	e.Blob(ev.Params)
}

func (ev JobAdmitted) encode(e *wire.Encoder) {
	e.I64(ev.JobID)
	e.F64(ev.Reserved)
}

func (ev JobFinished) encode(e *wire.Encoder)  { e.I64(ev.JobID) }
func (ev JobCancelled) encode(e *wire.Encoder) { e.I64(ev.JobID) }

func (ev Placed) encode(e *wire.Encoder) {
	e.I64(ev.JobID)
	e.I32(ev.MTID)
	e.I32(ev.Worker)
	e.U64(ev.Seq)
}

const commitWriteMin = 4 + 4 // two i32s

func (ev Commit) encode(e *wire.Encoder) {
	e.I64(ev.JobID)
	e.I32(ev.MTID)
	e.I32(ev.Worker)
	e.U64(ev.Seq)
	e.F64(ev.Seconds)
	appendWrites(e, ev.Writes)
}

const mtCommitMin = 4 + 8 + 4 // MTID + Seconds + write count

func (ev TaskCommitted) encode(e *wire.Encoder) {
	e.I64(ev.JobID)
	e.I32(ev.Task)
	e.I32(ev.Worker)
	e.U64(ev.Seq)
	appendMTCommits(e, ev.MTs)
}

func appendMTCommits(e *wire.Encoder, mts []MTCommit) {
	e.U32(uint32(len(mts)))
	for _, c := range mts {
		e.I32(c.MTID)
		e.F64(c.Seconds)
		appendWrites(e, c.Writes)
	}
}

func appendWrites(e *wire.Encoder, writes []CommitWrite) {
	e.U32(uint32(len(writes)))
	for _, w := range writes {
		e.I32(w.DS)
		e.I32(w.Part)
	}
}

func (ev WorkerRegistered) encode(e *wire.Encoder) {
	e.I32(ev.Worker)
	e.Str(ev.ShuffleAddr)
	e.I32(ev.Cores)
}

func (ev WorkerFailed) encode(e *wire.Encoder)   { e.I32(ev.Worker) }
func (ev WorkerDraining) encode(e *wire.Encoder) { e.I32(ev.Worker) }
func (ev WorkerDrained) encode(e *wire.Encoder)  { e.I32(ev.Worker) }

// AppendEvent appends ev's canonical encoding — one type byte, then the
// fields — to dst and returns it. The result is a journal record payload.
func AppendEvent(dst []byte, ev Event) []byte {
	e := wire.NewEncoder(append(dst, ev.typ()))
	ev.encode(e)
	return e.Bytes()
}

// DecodeEvent decodes one AppendEvent payload. Malformed input returns an
// error, never a panic, and a decoded event re-encodes to the identical
// payload (canonical encoding; see FuzzDecodeEvent).
func DecodeEvent(p []byte) (Event, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("cpstate: empty event")
	}
	d := wire.NewDecoder(p[1:])
	var ev Event
	switch p[0] {
	case evGeneration:
		ev = Generation{Gen: d.I64()}
	case evJobSubmitted:
		ev = JobSubmitted{JobID: d.I64(), Tenant: d.Str(), Workload: d.Str(),
			Params: append([]byte(nil), d.Blob()...)}
	case evJobAdmitted:
		ev = JobAdmitted{JobID: d.I64(), Reserved: d.F64()}
	case evJobFinished:
		ev = JobFinished{JobID: d.I64()}
	case evJobCancelled:
		ev = JobCancelled{JobID: d.I64()}
	case evPlaced:
		ev = Placed{JobID: d.I64(), MTID: d.I32(), Worker: d.I32(), Seq: d.U64()}
	case evCommit:
		ev = Commit{JobID: d.I64(), MTID: d.I32(), Worker: d.I32(),
			Seq: d.U64(), Seconds: d.F64(), Writes: decodeWrites(d)}
	case evTaskCommitted:
		ev = TaskCommitted{JobID: d.I64(), Task: d.I32(), Worker: d.I32(),
			Seq: d.U64(), MTs: decodeMTCommits(d)}
	case evWorkerRegistered:
		ev = WorkerRegistered{Worker: d.I32(), ShuffleAddr: d.Str(), Cores: d.I32()}
	case evWorkerFailed:
		ev = WorkerFailed{Worker: d.I32()}
	case evWorkerDraining:
		ev = WorkerDraining{Worker: d.I32()}
	case evWorkerDrained:
		ev = WorkerDrained{Worker: d.I32()}
	default:
		return nil, fmt.Errorf("cpstate: unknown event type %d", p[0])
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("cpstate: event type %d: %w", p[0], err)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("cpstate: event type %d: %d trailing bytes", p[0], d.Remaining())
	}
	return ev, nil
}

func decodeMTCommits(d *wire.Decoder) []MTCommit {
	var mts []MTCommit
	n := d.Count(mtCommitMin)
	for i := 0; i < n && d.Err() == nil; i++ {
		mts = append(mts, MTCommit{MTID: d.I32(), Seconds: d.F64(), Writes: decodeWrites(d)})
	}
	return mts
}

func decodeWrites(d *wire.Decoder) []CommitWrite {
	var writes []CommitWrite
	n := d.Count(commitWriteMin)
	for i := 0; i < n && d.Err() == nil; i++ {
		writes = append(writes, CommitWrite{DS: d.I32(), Part: d.I32()})
	}
	return writes
}
