package cpstate

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDecodeEvent hammers the event codec with arbitrary bytes: it must
// never panic, and any payload it accepts must re-encode byte-identically
// (canonical encoding) and be safely appliable to a fresh state.
func FuzzDecodeEvent(f *testing.F) {
	for _, ev := range []Event{
		Generation{Gen: 2},
		JobSubmitted{JobID: 7, Tenant: "alice", Workload: "wordcount", Params: []byte(`{"n":4}`)},
		JobAdmitted{JobID: 7, Reserved: 1 << 20},
		JobFinished{JobID: 7},
		JobCancelled{JobID: 8},
		Placed{JobID: 7, MTID: 3, Worker: 1, Seq: 1<<32 | 5},
		Commit{JobID: 7, MTID: 3, Worker: 1, Seq: 1<<32 | 5, Seconds: 0.25,
			Writes: []CommitWrite{{DS: 10, Part: 0}, {DS: 10, Part: 1}}},
		WorkerRegistered{Worker: 2, ShuffleAddr: "127.0.0.1:7001", Cores: 8},
		WorkerFailed{Worker: 2},
		WorkerDraining{Worker: 2},
		WorkerDrained{Worker: 2},
		WorkerRegistered{Worker: 3, ShuffleAddr: "127.0.0.1:7002", Cores: 4},
		TaskCommitted{JobID: 7, Task: 2, Worker: 1, Seq: 1<<32 | 5, MTs: []MTCommit{
			{MTID: 3, Seconds: 0.125},
			{MTID: 4, Seconds: 0.25, Writes: []CommitWrite{{DS: 10, Part: 0}, {DS: 10, Part: 1}}},
		}},
		TaskCommitted{JobID: 8, Task: 0, Worker: 0, Seq: 6}, // no monotask: decodes, names nothing
	} {
		f.Add(AppendEvent(nil, ev))
	}
	// Adversarial seeds: empty, unknown type, truncated, oversized count.
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{99, 1, 2, 3})
	f.Add([]byte{evCommit, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{evTaskCommitted, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 2, 0, 0, 0, 1,
		0, 0, 0, 1, 0, 0, 0, 5, 0xff, 0xff, 0xff, 0xff}) // monotask count past the payload
	f.Add(append(AppendEvent(nil, WorkerFailed{Worker: 1}), 0xff))
	f.Add(AppendEvent(nil, WorkerDraining{Worker: -1})) // no slot: ignored, not an index
	// Past the next slot: ignored, not a registry grown to 2^31 entries.
	f.Add(AppendEvent(nil, WorkerRegistered{Worker: math.MaxInt32, ShuffleAddr: "x"}))

	f.Fuzz(func(t *testing.T, p []byte) {
		ev, err := DecodeEvent(p)
		if err != nil {
			return
		}
		p2 := AppendEvent(nil, ev)
		if !bytes.Equal(p, p2) {
			t.Fatalf("accepted payload is not canonical:\n in  %x\n out %x", p, p2)
		}
		st := New()
		Apply(st, ev) // must not panic on any accepted event
		st.AppendEncoded(nil)
	})
}

// FuzzDecodeState hammers the snapshot decoder — whose bytes come from disk —
// with arbitrary input: it must never panic, and any snapshot it accepts must
// re-encode byte-identically and take further events. Seeds are the states
// after every prefix of sampleEvents, and damaged copies of the full one.
func FuzzDecodeState(f *testing.F) {
	st := New()
	f.Add(st.AppendEncoded(nil))
	for _, ev := range sampleEvents() {
		Apply(st, ev)
		f.Add(st.AppendEncoded(nil))
	}
	full := st.AppendEncoded(nil)
	f.Add(full[:len(full)/2])
	f.Add(append(full[:len(full):len(full)], 0))
	f.Add([]byte(stateMagic))

	f.Fuzz(func(t *testing.T, p []byte) {
		st, err := DecodeState(p)
		if err != nil {
			return
		}
		if p2 := st.AppendEncoded(nil); !bytes.Equal(p, p2) {
			t.Fatalf("accepted snapshot is not canonical:\n in  %x\n out %x", p, p2)
		}
		for _, ev := range sampleEvents() {
			Apply(st, ev) // must not panic on any accepted state
		}
	})
}
