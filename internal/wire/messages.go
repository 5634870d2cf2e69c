package wire

import "fmt"

// Message type bytes. The zero value is reserved so an all-zero frame is
// invalid. Bytes 5, 6 and 7 are unassigned and decode as unknown: an agent
// answers no Prepare (a failed one reaches the master as the Err of the
// records behind it), and a monotask never travels in a frame of its own:
// its task's Task carries it, and that task's TaskDone its record.
const (
	TRegister  byte = 1  // worker → master: join the cluster
	TWelcome   byte = 2  // master → worker: assigned identity + protocol params
	THeartbeat byte = 3  // worker → master: liveness beacon
	TPrepare   byte = 4  // master → worker: build a job's plan from the registry
	TAbort     byte = 8  // master → worker: discard an in-flight task
	TFetch     byte = 9  // any → holder: request one shuffle partition
	TFetchResp byte = 10 // holder → requester: partition contributions
	TJobDone   byte = 11 // master → worker: job finished, release its state
	TShutdown  byte = 12 // master → worker: drain and exit

	TSubmitJob byte = 13 // client → master: submit a (workload, params) job
	TSubmitAck byte = 14 // master → client: submission accepted (or rejected)
	TJobStatus byte = 15 // master → client: job state transition stream
	TCancelJob byte = 16 // client → master: cancel a queued job
	TJobQuery  byte = 17 // client → master: ask for a job's current state

	TDrainWorker byte = 18 // either direction: begin a graceful drain
	TDrainDone   byte = 19 // master → worker: drain complete, exit cleanly

	TTask     byte = 20 // master → worker: run one placed task's monotasks
	TTaskDone byte = 21 // worker → master: one measured record per monotask of a task
)

// BlobRaw is the blob encoding flag every contribution carries: the blob is
// the encoded rows as-is. The flags byte is opaque to the wire layer (any
// value round-trips verbatim); the remote layer's codec checks it, and
// rejects any other value as corrupt input.
const BlobRaw byte = 0

// Msg is one protocol message.
type Msg interface {
	Type() byte
	encode(e *Encoder)
}

// Decode decodes a payload previously framed with AppendFrame. Unknown
// types and malformed payloads return an error, never a panic.
func Decode(typ byte, payload []byte) (Msg, error) {
	d := NewDecoder(payload)
	var m Msg
	switch typ {
	case TRegister:
		m = decodeRegister(d)
	case TWelcome:
		m = decodeWelcome(d)
	case THeartbeat:
		m = decodeHeartbeat(d)
	case TPrepare:
		m = decodePrepare(d)
	case TAbort:
		m = decodeAbort(d)
	case TFetch:
		m = decodeFetch(d)
	case TFetchResp:
		m = decodeFetchResp(d)
	case TJobDone:
		m = decodeJobDone(d)
	case TShutdown:
		m = Shutdown{}
	case TSubmitJob:
		m = decodeSubmitJob(d)
	case TSubmitAck:
		m = decodeSubmitAck(d)
	case TJobStatus:
		m = decodeJobStatus(d)
	case TCancelJob:
		m = decodeCancelJob(d)
	case TJobQuery:
		m = decodeJobQuery(d)
	case TDrainWorker:
		m = decodeDrainWorker(d)
	case TDrainDone:
		m = decodeDrainDone(d)
	case TTask:
		m = decodeTask(d)
	case TTaskDone:
		m = decodeTaskDone(d)
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", typ)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("wire: message type %d: %w", typ, err)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("wire: message type %d: %d trailing bytes", typ, d.Remaining())
	}
	return m, nil
}

// Register is the first message on a worker's control connection.
type Register struct {
	// ShuffleAddr is the address peers dial to fetch this worker's shuffle
	// partitions.
	ShuffleAddr string
	// Cores advertises the agent's local execution parallelism.
	Cores int32
	// WorkerID is -1 for a fresh registration. A worker re-attaching after a
	// master failover sends the ID its previous master assigned, so the
	// takeover master can rebind the journaled registry slot — the worker's
	// committed contributions and prepared jobs stay keyed by it.
	WorkerID int32
	// MemBytes, CoreRate, NetBandwidth and DiskBandwidth advertise the
	// agent's machine profile (bytes, bytes/sec). Zero means "unprofiled":
	// the master keeps its uniform cluster defaults for this worker, which
	// is also what every pre-profile agent sends — both sides of the codec
	// changed together, so there is no compatibility shim. A non-zero
	// profile makes the master rebuild the worker's capacities and nominal
	// rates before the worker takes work (see core.System.SetWorkerProfile).
	MemBytes      float64
	CoreRate      float64
	NetBandwidth  float64
	DiskBandwidth float64
}

// HasProfile reports whether the registration advertises any machine
// profile dimension.
func (m Register) HasProfile() bool {
	return m.MemBytes != 0 || m.CoreRate != 0 || m.NetBandwidth != 0 || m.DiskBandwidth != 0
}

func (Register) Type() byte { return TRegister }
func (m Register) encode(e *Encoder) {
	e.Str(m.ShuffleAddr)
	e.I32(m.Cores)
	e.I32(m.WorkerID)
	e.F64(m.MemBytes)
	e.F64(m.CoreRate)
	e.F64(m.NetBandwidth)
	e.F64(m.DiskBandwidth)
}
func decodeRegister(d *Decoder) Msg {
	return Register{
		ShuffleAddr: d.Str(), Cores: d.I32(),
		WorkerID: d.I32(),
		MemBytes: d.F64(), CoreRate: d.F64(),
		NetBandwidth: d.F64(), DiskBandwidth: d.F64(),
	}
}

// Welcome assigns the worker its identity and protocol parameters, among
// them the limits of its monotask queues (§4.2.3), which are the master's
// scheduler configuration (core.Config): the agent takes no flag for them.
type Welcome struct {
	WorkerID        int32
	HeartbeatMicros int64
	// Gen is the master's generation number. It rises by one at every
	// standby takeover; task sequence numbers are namespaced by it, so the
	// at-most-once commit of a task under its seq extends across failovers
	// without any per-frame generation field.
	Gen int64
	// NetConcurrency bounds the network monotasks the worker runs at once,
	// and one whose estimated input is below SmallMonotaskBytes starts at
	// once, outside that bound.
	NetConcurrency     int32
	SmallMonotaskBytes float64
}

func (Welcome) Type() byte { return TWelcome }
func (m Welcome) encode(e *Encoder) {
	e.I32(m.WorkerID)
	e.I64(m.HeartbeatMicros)
	e.I64(m.Gen)
	e.I32(m.NetConcurrency)
	e.F64(m.SmallMonotaskBytes)
}
func decodeWelcome(d *Decoder) Msg {
	return Welcome{
		WorkerID: d.I32(), HeartbeatMicros: d.I64(), Gen: d.I64(),
		NetConcurrency: d.I32(), SmallMonotaskBytes: d.F64(),
	}
}

// Heartbeat is the worker's periodic liveness beacon.
type Heartbeat struct {
	WorkerID       int32
	SentUnixMicros int64
}

func (Heartbeat) Type() byte { return THeartbeat }
func (m Heartbeat) encode(e *Encoder) {
	e.I32(m.WorkerID)
	e.I64(m.SentUnixMicros)
}
func decodeHeartbeat(d *Decoder) Msg {
	return Heartbeat{WorkerID: d.I32(), SentUnixMicros: d.I64()}
}

// Prepare tells a worker to build a job's plan from the workload registry.
// Workload + Params are the cross-process plan identity: both sides run the
// same registered builder, so dataset and monotask IDs agree by construction.
// The master sends it once per (worker, job), just ahead of that worker's
// first Task of the job.
type Prepare struct {
	JobID    int64
	Workload string
	Params   []byte
}

func (Prepare) Type() byte { return TPrepare }
func (m Prepare) encode(e *Encoder) {
	e.I64(m.JobID)
	e.Str(m.Workload)
	e.Blob(m.Params)
}
func decodePrepare(d *Decoder) Msg {
	return Prepare{JobID: d.I64(), Workload: d.Str(), Params: d.Blob()}
}

// FetchSpec tells the executing worker where one input partition lives.
// Origin is the worker whose contribution store serves it and Addr that
// worker's shuffle address. Origin -1 is the master's canonical store, which
// answers at the master's control address, so its Addr is empty.
type FetchSpec struct {
	DatasetID int32
	Part      int32
	Origin    int32
	Addr      string
}

const fetchSpecMin = 4 + 4 + 4 + 4 // three i32s + empty string prefix

func (s FetchSpec) encode(e *Encoder) {
	e.I32(s.DatasetID)
	e.I32(s.Part)
	e.I32(s.Origin)
	e.Str(s.Addr)
}
func decodeFetchSpec(d *Decoder) FetchSpec {
	return FetchSpec{DatasetID: d.I32(), Part: d.I32(), Origin: d.I32(), Addr: d.Str()}
}

// Dispatch is one monotask of a Task. EstInput is the monotask's estimated
// input, its size in the worker's queue order and bypass. Fetches name the
// holders of the input partitions it reads that other tasks wrote. Framed
// alone, a Dispatch is the Task frame of a one-monotask task at priority 0,
// under Seq; inside a Task its JobID is the frame's and Seq is unused.
type Dispatch struct {
	JobID    int64
	MTID     int32
	Seq      uint64
	EstInput float64
	Fetches  []FetchSpec
}

const dispatchMin = 4 + 8 + 4 // MTID + EstInput + fetch count

func (Dispatch) Type() byte { return TTask }
func (m Dispatch) encode(e *Encoder) {
	Task{JobID: m.JobID, Seq: m.Seq, MTs: []Dispatch{m}}.encode(e)
}

// Task asks a worker to run one placed task of a prepared job: the worker
// queues its monotasks by the job's priority snapshot Prio (§4.2.3) and runs
// each one as soon as the monotasks of the task it reads have run. MTs names
// every monotask of the task, and every one runs. Seq is the task's
// at-most-once token: its TaskDone echoes it, an Abort names it, and the
// master commits the task under it once.
type Task struct {
	JobID int64
	Seq   uint64
	Prio  float64
	MTs   []Dispatch
}

func (Task) Type() byte { return TTask }
func (m Task) encode(e *Encoder) {
	e.I64(m.JobID)
	e.U64(m.Seq)
	e.F64(m.Prio)
	e.U32(uint32(len(m.MTs)))
	for _, d := range m.MTs {
		e.I32(d.MTID)
		e.F64(d.EstInput)
		e.U32(uint32(len(d.Fetches)))
		for _, f := range d.Fetches {
			f.encode(e)
		}
	}
}
func decodeTask(d *Decoder) Msg {
	m := Task{JobID: d.I64(), Seq: d.U64(), Prio: d.F64()}
	n := d.count(dispatchMin)
	for i := 0; i < n && d.Err() == nil; i++ {
		mt := Dispatch{JobID: m.JobID, MTID: d.I32(), EstInput: d.F64()}
		nf := d.count(fetchSpecMin)
		for j := 0; j < nf && d.Err() == nil; j++ {
			mt.Fetches = append(mt.Fetches, decodeFetchSpec(d))
		}
		m.MTs = append(m.MTs, mt)
	}
	return m
}

// PartWrite is one partition contribution produced by a completed monotask.
// Rows is an opaque row payload (the remote layer's row codec); Flags says
// how it is encoded (BlobRaw) and RawLen is its encoded length, which the
// receiver checks against len(Rows) before decoding.
type PartWrite struct {
	DatasetID int32
	Part      int32
	Flags     byte
	RawLen    uint32
	Rows      []byte
}

const partWriteMin = 4 + 4 + 1 + 4 + 4 // two i32s + flags + rawlen + empty blob prefix

func (w PartWrite) encode(e *Encoder) {
	e.I32(w.DatasetID)
	e.I32(w.Part)
	e.U8(w.Flags)
	e.U32(w.RawLen)
	e.Blob(w.Rows)
}
func decodePartWrite(d *Decoder) PartWrite {
	return PartWrite{
		DatasetID: d.I32(), Part: d.I32(),
		Flags: d.U8(), RawLen: d.U32(), Rows: d.Blob(),
	}
}

// Complete is one monotask's record in a TaskDone: Seconds is the
// wall-clock execution time on the worker (the T of the §4.2.2 rate
// estimate X/T), FetchedWireBytes the shuffle payload bytes pulled over the
// wire to feed it, and Writes the produced partition contributions that leave
// its task (checkpointed at the master for §4.3 recovery). Framed alone, a
// Complete is the TaskDone of one record under Seq; inside a TaskDone its
// JobID is the frame's and Seq is unused.
type Complete struct {
	JobID   int64
	MTID    int32
	Seq     uint64
	Seconds float64
	// FetchedWireBytes is what crossed the network for the monotask's inputs
	// and FetchedRawBytes their encoded size; blobs travel as encoded, so the
	// two are equal. Both feed only the master's transport counters: the rate
	// monitors take the monotask's planned input bytes over Seconds.
	FetchedWireBytes float64
	FetchedRawBytes  float64
	// FetchRetries counts shuffle fetch attempts beyond the first that this
	// monotask's input pulls needed (transient peer faults absorbed by
	// retry/backoff), and FetchFallbacks counts partitions that degraded to
	// the master's canonical store after peer retries were exhausted — the
	// degradation signals the master adds to this worker's counters in
	// metrics.Transport (whose retry=/fallback= totals sum them).
	FetchRetries   int32
	FetchFallbacks int32
	// MemPeak is the observed memory high-water mark of this monotask's
	// execution (bytes): the larger of its materialized input and the raw
	// bytes of the writes it ships (a chain- or task-internal intermediate is
	// never shipped, so it does not count). The master folds per-job maxima
	// into the DRESS-style reservation corrector, so admission's estimate
	// learns from usage.
	MemPeak float64
	Err     string
	Writes  []PartWrite
}

const completeMin = 4 + 8*3 + 4*2 + 8 + 4 + 4 // fixed fields + empty Err + write count

func (Complete) Type() byte { return TTaskDone }
func (m Complete) encode(e *Encoder) {
	TaskDone{JobID: m.JobID, Seq: m.Seq, Records: []Complete{m}}.encode(e)
}

// TaskDone reports a finished task to the master under its Task's Seq: one
// record per monotask of the task, producers before their consumers. A
// monotask that failed, or was not run because another of its task failed,
// carries Err.
type TaskDone struct {
	JobID   int64
	Seq     uint64
	Records []Complete
}

func (TaskDone) Type() byte { return TTaskDone }
func (m TaskDone) encode(e *Encoder) {
	e.I64(m.JobID)
	e.U64(m.Seq)
	e.U32(uint32(len(m.Records)))
	for _, c := range m.Records {
		e.I32(c.MTID)
		e.F64(c.Seconds)
		e.F64(c.FetchedWireBytes)
		e.F64(c.FetchedRawBytes)
		e.I32(c.FetchRetries)
		e.I32(c.FetchFallbacks)
		e.F64(c.MemPeak)
		e.Str(c.Err)
		e.U32(uint32(len(c.Writes)))
		for _, w := range c.Writes {
			w.encode(e)
		}
	}
}
func decodeTaskDone(d *Decoder) Msg {
	m := TaskDone{JobID: d.I64(), Seq: d.U64()}
	n := d.count(completeMin)
	for i := 0; i < n && d.Err() == nil; i++ {
		c := Complete{
			JobID: m.JobID, MTID: d.I32(),
			Seconds: d.F64(), FetchedWireBytes: d.F64(), FetchedRawBytes: d.F64(),
			FetchRetries: d.I32(), FetchFallbacks: d.I32(), MemPeak: d.F64(), Err: d.Str(),
		}
		nw := d.count(partWriteMin)
		for j := 0; j < nw && d.Err() == nil; j++ {
			c.Writes = append(c.Writes, decodePartWrite(d))
		}
		m.Records = append(m.Records, c)
	}
	return m
}

// Abort tells a worker to discard the in-flight task dispatched under Seq
// (§4.3): the task was reset and will re-run elsewhere, so its records must
// not commit.
type Abort struct {
	JobID int64
	Seq   uint64
}

func (Abort) Type() byte { return TAbort }
func (m Abort) encode(e *Encoder) {
	e.I64(m.JobID)
	e.U64(m.Seq)
}
func decodeAbort(d *Decoder) Msg {
	return Abort{JobID: d.I64(), Seq: d.U64()}
}

// Fetch requests one shuffle partition from a holder. Origin echoes the
// FetchSpec so the holder can validate it serves its own contributions.
type Fetch struct {
	JobID     int64
	DatasetID int32
	Part      int32
	Origin    int32
}

func (Fetch) Type() byte { return TFetch }
func (m Fetch) encode(e *Encoder) {
	e.I64(m.JobID)
	e.I32(m.DatasetID)
	e.I32(m.Part)
	e.I32(m.Origin)
}
func decodeFetch(d *Decoder) Msg {
	return Fetch{JobID: d.I64(), DatasetID: d.I32(), Part: d.I32(), Origin: d.I32()}
}

// PartContrib is one producer monotask's contribution to a partition.
// Carrying the producer ID lets every node assemble partitions in the same
// canonical order (sorted by producer), which keeps ordinal-sensitive reads
// identical across processes. Flags/RawLen mirror PartWrite: Rows is the
// pre-encoded blob exactly as the producer committed it.
type PartContrib struct {
	MTID   int32
	Flags  byte
	RawLen uint32
	Rows   []byte
}

const partContribMin = 4 + 1 + 4 + 4 // i32 + flags + rawlen + empty blob prefix

// FetchResp answers a Fetch with the partition's contributions.
type FetchResp struct {
	Err      string
	Contribs []PartContrib
}

func (FetchResp) Type() byte { return TFetchResp }
func (m FetchResp) encode(e *Encoder) {
	e.Str(m.Err)
	e.U32(uint32(len(m.Contribs)))
	for _, c := range m.Contribs {
		c.encode(e)
	}
}
func (c PartContrib) encode(e *Encoder) {
	e.I32(c.MTID)
	e.U8(c.Flags)
	e.U32(c.RawLen)
	e.Blob(c.Rows)
}
func decodePartContrib(d *Decoder) PartContrib {
	return PartContrib{MTID: d.I32(), Flags: d.U8(), RawLen: d.U32(), Rows: d.Blob()}
}
func decodeFetchResp(d *Decoder) Msg {
	m := FetchResp{Err: d.Str()}
	n := d.count(partContribMin)
	for i := 0; i < n && d.Err() == nil; i++ {
		m.Contribs = append(m.Contribs, decodePartContrib(d))
	}
	return m
}

// AppendFetchFrame appends the frame for f to dst without boxing f into the
// Msg interface — the shuffle client's request path stays allocation-free.
func AppendFetchFrame(dst []byte, f Fetch) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, TFetch)
	e := Encoder{buf: dst}
	f.encode(&e)
	dst = e.buf
	patchFrameLen(dst[start:])
	return dst
}

// DecodeFetch decodes a TFetch payload without interface boxing.
func DecodeFetch(payload []byte) (Fetch, error) {
	d := NewDecoder(payload)
	f := Fetch{JobID: d.I64(), DatasetID: d.I32(), Part: d.I32(), Origin: d.I32()}
	if err := d.Err(); err != nil {
		return Fetch{}, fmt.Errorf("wire: fetch: %w", err)
	}
	if d.Remaining() != 0 {
		return Fetch{}, fmt.Errorf("wire: fetch: %d trailing bytes", d.Remaining())
	}
	return f, nil
}

// DecodeFetchRespInto decodes a TFetchResp payload into m, reusing m's
// Contribs capacity. The decoded contributions alias payload — they are valid
// only as long as the caller keeps the payload buffer untouched.
func DecodeFetchRespInto(payload []byte, m *FetchResp) error {
	d := Decoder{buf: payload}
	m.Err = d.Str()
	m.Contribs = m.Contribs[:0]
	n := d.count(partContribMin)
	for i := 0; i < n && d.err == nil; i++ {
		m.Contribs = append(m.Contribs, decodePartContrib(&d))
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("wire: fetch resp: %w", err)
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("wire: fetch resp: %d trailing bytes", d.Remaining())
	}
	return nil
}

// JobDone tells workers to release a finished job's state.
type JobDone struct{ JobID int64 }

func (JobDone) Type() byte          { return TJobDone }
func (m JobDone) encode(e *Encoder) { e.I64(m.JobID) }
func decodeJobDone(d *Decoder) Msg  { return JobDone{JobID: d.I64()} }

// Shutdown asks a worker to drain in-flight work and exit cleanly.
type Shutdown struct{}

func (Shutdown) Type() byte        { return TShutdown }
func (Shutdown) encode(e *Encoder) {}

// SubmitJob is a client's job submission: a (workload, params) reference
// into the shared registry — the same cross-process plan identity Prepare
// uses, so no plan bytes ship. SubmitID is a client-chosen correlation token
// echoed in the SubmitAck and every JobStatus for this job.
type SubmitJob struct {
	SubmitID int64
	Tenant   string
	Workload string
	Params   []byte
}

func (SubmitJob) Type() byte { return TSubmitJob }
func (m SubmitJob) encode(e *Encoder) {
	e.I64(m.SubmitID)
	e.Str(m.Tenant)
	e.Str(m.Workload)
	e.Blob(m.Params)
}
func decodeSubmitJob(d *Decoder) Msg {
	return SubmitJob{
		SubmitID: d.I64(), Tenant: d.Str(),
		Workload: d.Str(), Params: d.Blob(),
	}
}

// SubmitAck answers a SubmitJob once the job is queued for admission (its
// submission is durable on the master's scheduler). A non-empty Err means
// the submission was rejected and JobID is meaningless.
type SubmitAck struct {
	SubmitID int64
	JobID    int64
	Err      string
}

func (SubmitAck) Type() byte { return TSubmitAck }
func (m SubmitAck) encode(e *Encoder) {
	e.I64(m.SubmitID)
	e.I64(m.JobID)
	e.Str(m.Err)
}
func decodeSubmitAck(d *Decoder) Msg {
	return SubmitAck{SubmitID: d.I64(), JobID: d.I64(), Err: d.Str()}
}

// Job state bytes carried by JobStatus. They mirror core.JobState but are
// pinned here so the wire contract cannot drift with internal enum edits.
const (
	StateQueued    byte = 0
	StateAdmitted  byte = 1
	StateFinished  byte = 2
	StateCancelled byte = 3
	// StateNotFound is the terminal answer to a JobQuery for a job this
	// master does not know — never seen, or forgotten across a restart or
	// journal compaction. Clients must treat it as final rather than waiting
	// for further transitions.
	StateNotFound byte = 4
)

// JobStatus streams a job's state transitions back to its submitter.
// Terminal states are StateFinished and StateCancelled; Detail carries a
// human-readable annotation (e.g. the drain reason for a cancellation).
type JobStatus struct {
	SubmitID int64
	JobID    int64
	State    byte
	Detail   string
}

func (JobStatus) Type() byte { return TJobStatus }
func (m JobStatus) encode(e *Encoder) {
	e.I64(m.SubmitID)
	e.I64(m.JobID)
	e.U8(m.State)
	e.Str(m.Detail)
}
func decodeJobStatus(d *Decoder) Msg {
	return JobStatus{SubmitID: d.I64(), JobID: d.I64(), State: d.U8(), Detail: d.Str()}
}

// CancelJob asks the master to cancel a job this client submitted. Only
// still-queued jobs can be cancelled; the outcome arrives as a JobStatus
// (StateCancelled) or is implied by a later terminal state.
type CancelJob struct{ JobID int64 }

func (CancelJob) Type() byte          { return TCancelJob }
func (m CancelJob) encode(e *Encoder) { e.I64(m.JobID) }
func decodeCancelJob(d *Decoder) Msg  { return CancelJob{JobID: d.I64()} }

// JobQuery asks for a job's current state; the answer comes back as one
// JobStatus echoing SubmitID. A job the master does not track — unknown ID,
// or state dropped across a restart/compaction — answers StateNotFound, so a
// client polling a job that outlived its master terminates instead of
// waiting forever.
type JobQuery struct {
	// SubmitID is a client-chosen correlation token echoed in the JobStatus
	// reply; it must be distinct from in-flight SubmitJob tokens.
	SubmitID int64
	JobID    int64
}

func (JobQuery) Type() byte { return TJobQuery }
func (m JobQuery) encode(e *Encoder) {
	e.I64(m.SubmitID)
	e.I64(m.JobID)
}
func decodeJobQuery(d *Decoder) Msg {
	return JobQuery{SubmitID: d.I64(), JobID: d.I64()}
}

// DrainWorker begins a graceful drain. Master → worker it announces the
// drain (the worker keeps executing inflight dispatches but expects no new
// ones); worker → master it is a self-requested drain (the worker binary's
// SIGINT/SIGTERM) asking the master to run the drain state machine for
// this worker. Reason is a human-readable annotation for logs.
type DrainWorker struct {
	WorkerID int32
	Reason   string
}

func (DrainWorker) Type() byte { return TDrainWorker }
func (m DrainWorker) encode(e *Encoder) {
	e.I32(m.WorkerID)
	e.Str(m.Reason)
}
func decodeDrainWorker(d *Decoder) Msg {
	return DrainWorker{WorkerID: d.I32(), Reason: d.Str()}
}

// DrainDone tells a draining worker its last inflight monotask committed and
// its shuffle partitions are covered by the master's canonical store: it may
// exit cleanly. Unlike Shutdown it is per-worker, not a cluster stop.
type DrainDone struct{ WorkerID int32 }

func (DrainDone) Type() byte          { return TDrainDone }
func (m DrainDone) encode(e *Encoder) { e.I32(m.WorkerID) }
func decodeDrainDone(d *Decoder) Msg  { return DrainDone{WorkerID: d.I32()} }
