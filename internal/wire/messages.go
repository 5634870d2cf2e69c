package wire

import "fmt"

// Message type bytes. The zero value is reserved so an all-zero frame is
// invalid.
const (
	TRegister  byte = 1  // worker → master: join the cluster
	TWelcome   byte = 2  // master → worker: assigned identity + protocol params
	THeartbeat byte = 3  // worker → master: liveness beacon
	TPrepare   byte = 4  // master → worker: build a job's plan from the registry
	TJobReady  byte = 5  // worker → master: a Prepare failed
	TDispatch  byte = 6  // master → worker: execute one monotask
	TComplete  byte = 7  // worker → master: measured completion + output contributions
	TAbort     byte = 8  // master → worker: discard an in-flight dispatch
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
	case TJobReady:
		m = decodeJobReady(d)
	case TDispatch:
		m = decodeDispatch(d)
	case TComplete:
		m = decodeComplete(d)
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

// Welcome assigns the worker its identity and protocol parameters.
type Welcome struct {
	WorkerID        int32
	HeartbeatMicros int64
	// Gen is the master's generation number. It rises by one at every
	// standby takeover; dispatch sequence numbers are namespaced by it, so
	// the at-most-once (jobID, mtID, seq) commit discipline extends across
	// failovers without any per-frame generation field.
	Gen int64
}

func (Welcome) Type() byte { return TWelcome }
func (m Welcome) encode(e *Encoder) {
	e.I32(m.WorkerID)
	e.I64(m.HeartbeatMicros)
	e.I64(m.Gen)
}
func decodeWelcome(d *Decoder) Msg {
	return Welcome{
		WorkerID: d.I32(), HeartbeatMicros: d.I64(), Gen: d.I64(),
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

// JobReady reports a Prepare that failed (agents send none for one that
// succeeded); a non-empty Err is fatal for the run.
type JobReady struct {
	JobID int64
	Err   string
}

func (JobReady) Type() byte { return TJobReady }
func (m JobReady) encode(e *Encoder) {
	e.I64(m.JobID)
	e.Str(m.Err)
}
func decodeJobReady(d *Decoder) Msg {
	return JobReady{JobID: d.I64(), Err: d.Str()}
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

// Dispatch asks a worker to execute one monotask of a prepared job. Seq
// disambiguates re-dispatches of the same monotask after a failure, making
// the master's completion commit at-most-once.
type Dispatch struct {
	JobID   int64
	MTID    int32
	Seq     uint64
	Fetches []FetchSpec
}

func (Dispatch) Type() byte { return TDispatch }
func (m Dispatch) encode(e *Encoder) {
	e.I64(m.JobID)
	e.I32(m.MTID)
	e.U64(m.Seq)
	e.U32(uint32(len(m.Fetches)))
	for _, f := range m.Fetches {
		f.encode(e)
	}
}
func decodeDispatch(d *Decoder) Msg {
	m := Dispatch{JobID: d.I64(), MTID: d.I32(), Seq: d.U64()}
	n := d.count(fetchSpecMin)
	for i := 0; i < n && d.Err() == nil; i++ {
		m.Fetches = append(m.Fetches, decodeFetchSpec(d))
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

// Complete reports a monotask's measured execution: Seconds is the
// wall-clock execution time on the worker (the T of the §4.2.2 rate
// estimate X/T), FetchedWireBytes the shuffle payload bytes pulled over the
// wire to feed it, and Writes the produced partition contributions
// (checkpointed at the master for §4.3 recovery).
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
	// execution (bytes): the larger of its materialized input and its raw
	// output. The master folds per-job maxima into the DRESS-style
	// reservation corrector, so admission's estimate learns from usage.
	MemPeak float64
	Err     string
	Writes  []PartWrite
}

func (Complete) Type() byte { return TComplete }
func (m Complete) encode(e *Encoder) {
	e.I64(m.JobID)
	e.I32(m.MTID)
	e.U64(m.Seq)
	e.F64(m.Seconds)
	e.F64(m.FetchedWireBytes)
	e.F64(m.FetchedRawBytes)
	e.I32(m.FetchRetries)
	e.I32(m.FetchFallbacks)
	e.F64(m.MemPeak)
	e.Str(m.Err)
	e.U32(uint32(len(m.Writes)))
	for _, w := range m.Writes {
		w.encode(e)
	}
}
func decodeComplete(d *Decoder) Msg {
	m := Complete{
		JobID: d.I64(), MTID: d.I32(), Seq: d.U64(),
		Seconds: d.F64(), FetchedWireBytes: d.F64(), FetchedRawBytes: d.F64(),
		FetchRetries: d.I32(), FetchFallbacks: d.I32(), MemPeak: d.F64(), Err: d.Str(),
	}
	n := d.count(partWriteMin)
	for i := 0; i < n && d.Err() == nil; i++ {
		m.Writes = append(m.Writes, decodePartWrite(d))
	}
	return m
}

// Abort tells a worker to discard an in-flight dispatch (§4.3): the task
// was reset and will re-run elsewhere, so its completion must not commit.
type Abort struct {
	JobID int64
	MTID  int32
	Seq   uint64
}

func (Abort) Type() byte { return TAbort }
func (m Abort) encode(e *Encoder) {
	e.I64(m.JobID)
	e.I32(m.MTID)
	e.U64(m.Seq)
}
func decodeAbort(d *Decoder) Msg {
	return Abort{JobID: d.I64(), MTID: d.I32(), Seq: d.U64()}
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
