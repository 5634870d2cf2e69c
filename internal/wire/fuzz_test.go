package wire

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame feeds adversarial byte streams through the full inbound
// path: frame read (with a small max-frame bound so the fuzzer can reach
// the guard) followed by message decode. The invariants under fuzz:
//
//   - no panic, ever;
//   - the frame reader never allocates a buffer beyond the negotiated max
//     (enforced structurally: the length check precedes the allocation);
//   - any successfully decoded message re-encodes to the same payload
//     (canonical encoding round-trips).
func FuzzDecodeFrame(f *testing.F) {
	// Seed with one valid frame per message type plus structural edge
	// cases; the checked-in corpus in testdata/ mirrors these.
	seeds := []Msg{
		Register{ShuffleAddr: "127.0.0.1:0", Cores: 4, WorkerID: -1},
		Register{ShuffleAddr: "127.0.0.1:0", Cores: 4, WorkerID: 2}, // failover re-attach
		Register{ShuffleAddr: "127.0.0.1:0", Cores: 2, WorkerID: -1,
			MemBytes: 8e9, CoreRate: 2.5e7, NetBandwidth: 1e9, DiskBandwidth: 1e8}, // profiled
		Welcome{WorkerID: 1, HeartbeatMicros: 250000, Gen: 2},
		Heartbeat{WorkerID: 1, SentUnixMicros: 42},
		Prepare{JobID: 1, Workload: "wc", Params: []byte{9}},
		Task{JobID: 1, Seq: 3, Prio: 2, MTs: []Dispatch{{MTID: 1}, {MTID: 2, EstInput: 4, Fetches: []FetchSpec{{DatasetID: 1, Part: 0, Origin: -1, Addr: "a"}}}}},
		TaskDone{JobID: 1, Seq: 3, Records: []Complete{{MTID: 1, Seconds: 0.25}, {MTID: 2, Seconds: 0.5, FetchedWireBytes: 1, FetchedRawBytes: 2, Writes: []PartWrite{{DatasetID: 1, Part: 0, Flags: BlobRaw, RawLen: 1, Rows: []byte("r")}}}}},
		Abort{JobID: 1, Seq: 3},
		Fetch{JobID: 1, DatasetID: 2, Part: 3, Origin: 4},
		FetchResp{Contribs: []PartContrib{{MTID: 1, Flags: BlobRaw, RawLen: 1, Rows: []byte("x")}}},
		// RawLen disagreeing with the blob: the wire layer carries it as is,
		// the codec rejects it.
		FetchResp{Contribs: []PartContrib{{MTID: 2, Flags: BlobRaw, RawLen: 4096, Rows: []byte{0x78, 0x9c, 0x01}}}},
		TaskDone{JobID: 2, Seq: 4, Records: []Complete{{MTID: 3, Writes: []PartWrite{{DatasetID: 1, Part: 1, Flags: BlobRaw, RawLen: 1 << 12, Rows: []byte{0x4b, 0x4c, 0x44, 0x04, 0x00}}}}}},
		JobDone{JobID: 1},
		Shutdown{},
		// Front-door submission frames.
		SubmitJob{SubmitID: 7, Tenant: "team-a", Workload: "micro", Params: []byte{1, 2}},
		SubmitJob{SubmitID: 8}, // empty tenant/workload/params
		SubmitAck{SubmitID: 7, JobID: 41},
		SubmitAck{SubmitID: 9, Err: "draining"},
		JobStatus{SubmitID: 7, JobID: 41, State: StateAdmitted},
		JobStatus{SubmitID: 7, JobID: 41, State: StateCancelled, Detail: "drain"},
		CancelJob{JobID: 41},
		JobQuery{SubmitID: 10, JobID: 41},
		JobStatus{SubmitID: 10, JobID: 99, State: StateNotFound, Detail: "unknown job"},
		// Elastic membership frames.
		DrainWorker{WorkerID: 2, Reason: "scale-down"},
		DrainWorker{WorkerID: 0, Reason: ""}, // self-requested, no annotation
		DrainDone{WorkerID: 2},
		TaskDone{JobID: 3, Seq: 1<<32 | 9, Records: []Complete{{MTID: 1, Seconds: 0.1, MemPeak: 1 << 20}, {MTID: 2, Err: "x"}}},
	}
	for _, m := range seeds {
		f.Add(AppendFrame(nil, m))
	}
	// A well-formed frame under the unassigned type byte 5, which must
	// decode as unknown (so must 6 and 7, TestRetiredTypesDecodeUnknown).
	retired := AppendFrame(nil, Prepare{JobID: 1, Workload: "wc"})
	retired[4] = 5
	f.Add(retired)
	// Edge cases: empty, short header, zero-length frame, oversize claim,
	// absurd inner list count.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Add([]byte{0, 0, 0, 5, TTask, 0xFF, 0xFF, 0xFF, 0xFF})

	const maxFrame = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data), maxFrame)
		if err != nil {
			return
		}
		if len(payload)+1 > maxFrame {
			t.Fatalf("frame reader returned %d-byte payload beyond max %d", len(payload), maxFrame)
		}
		m, err := Decode(typ, payload)
		if err != nil {
			return
		}
		// Canonical re-encode must reproduce the exact payload.
		var e Encoder
		m.encode(&e)
		if !bytes.Equal(e.Bytes(), payload) {
			t.Fatalf("re-encode mismatch for type %d:\n got %x\nwant %x", typ, e.Bytes(), payload)
		}
	})
}
