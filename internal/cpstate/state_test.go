package cpstate

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// sampleEvents is a lifecycle covering every event type: two workers join,
// two jobs flow through submit→admit→commit, one finishes (compacting its
// commits and origins), one worker dies, a takeover generation resets the
// survivor to queued, and a third job is cancelled. Placed and Commit, which
// no master records, are among them: Apply must ignore both.
func sampleEvents() []Event {
	return []Event{
		WorkerRegistered{Worker: 0, ShuffleAddr: "127.0.0.1:7001", Cores: 4},
		WorkerRegistered{Worker: 1, ShuffleAddr: "127.0.0.1:7002", Cores: 8},
		JobSubmitted{JobID: 1, Tenant: "alice", Workload: "wordcount", Params: []byte(`{"n":4}`)},
		JobSubmitted{JobID: 2, Tenant: "bob", Workload: "sort", Params: []byte(`{"n":2}`)},
		JobAdmitted{JobID: 1, Reserved: 1 << 20},
		JobAdmitted{JobID: 2, Reserved: 2 << 20},
		Placed{JobID: 1, MTID: 10, Worker: 0, Seq: 1},
		Placed{JobID: 1, MTID: 11, Worker: 1, Seq: 2},
		Placed{JobID: 2, MTID: 20, Worker: 0, Seq: 3},
		TaskCommitted{JobID: 1, Task: 4, Worker: 0, Seq: 1, MTs: []MTCommit{
			{MTID: 9, Seconds: 0.125},
			{MTID: 10, Seconds: 0.25, Writes: []CommitWrite{{DS: 100, Part: 0}, {DS: 100, Part: 1}}},
		}},
		TaskCommitted{JobID: 1, Task: 5, Worker: 1, Seq: 2, MTs: []MTCommit{
			{MTID: 11, Seconds: 0.5, Writes: []CommitWrite{{DS: 100, Part: 0}}},
		}},
		JobFinished{JobID: 1},
		TaskCommitted{JobID: 2, Task: 0, Worker: 0, Seq: 3, MTs: []MTCommit{
			{MTID: 20, Seconds: 1.5, Writes: []CommitWrite{{DS: 200, Part: 3}}},
		}},
		Commit{JobID: 2, MTID: 21, Worker: 1, Seq: 4, Seconds: 2,
			Writes: []CommitWrite{{DS: 200, Part: 4}}},
		WorkerFailed{Worker: 1},
		Generation{Gen: 2},
		JobSubmitted{JobID: 3, Tenant: "alice", Workload: "wordcount", Params: nil},
		JobCancelled{JobID: 3},
	}
}

func buildState(t *testing.T, events []Event) *State {
	t.Helper()
	st := New()
	for _, ev := range events {
		Apply(st, ev)
	}
	return st
}

// TestApplySemantics pins the state-machine invariants the master relies on.
func TestApplySemantics(t *testing.T) {
	st := buildState(t, sampleEvents())

	if st.Gen != 2 {
		t.Fatalf("Gen = %d, want 2", st.Gen)
	}
	if st.Applied != uint64(len(sampleEvents())) {
		t.Fatalf("Applied = %d, want %d", st.Applied, len(sampleEvents()))
	}

	// Job 1 finished: terminal, compacted.
	if ph := st.Jobs[1].Phase; ph != PhaseFinished {
		t.Fatalf("job 1 phase = %d, want finished", ph)
	}
	for k := range st.Commits {
		if k.Job == 1 {
			t.Fatalf("job 1 commit %v survived compaction", k)
		}
	}
	for k := range st.Origins {
		if k.Job == 1 {
			t.Fatalf("job 1 origin %v survived compaction", k)
		}
	}

	// Job 2 was admitted, then the generation bump reset it to queued; its
	// commit and origin survive the takeover.
	if ph := st.Jobs[2].Phase; ph != PhaseQueued {
		t.Fatalf("job 2 phase = %d, want queued after generation reset", ph)
	}
	want := []MTCommit{{MTID: 20, Seconds: 1.5, Writes: []CommitWrite{{DS: 200, Part: 3}}}}
	if got := st.Commits[TaskKey{2, 0}]; !reflect.DeepEqual(got, want) {
		t.Fatalf("job 2 task 0 commit = %+v across the generation bump, want %+v", got, want)
	}
	if got := st.Origins[PartKey{2, 200, 3}]; len(got) != 1 || got[0] != 0 {
		t.Fatalf("job 2 origins = %v, want [0]", got)
	}
	// The Placed and the Commit left no trace: one task commit, one origin.
	if len(st.Commits) != 1 || len(st.Origins) != 1 {
		t.Fatalf("commits %+v and origins %+v, want job 2's task 0 alone", st.Commits, st.Origins)
	}

	// Worker registry survives; the failure mark survives.
	if len(st.Workers) != 2 || !st.Workers[1].Failed || st.Workers[0].Failed {
		t.Fatalf("workers = %+v, want worker 1 failed only", st.Workers)
	}

	// Job 3 cancelled terminally.
	if ph := st.Jobs[3].Phase; ph != PhaseCancelled {
		t.Fatalf("job 3 phase = %d, want cancelled", ph)
	}
}

// TestUnreadFieldsNotFolded: what no takeover reads back — Placed, Commit,
// a JobAdmitted's reservation, a TaskCommitted's sequence number, a
// registration's cores — leaves no trace in the state: changing all of them
// changes no byte of its encoding.
func TestUnreadFieldsNotFolded(t *testing.T) {
	events := sampleEvents()
	varied := make([]Event, len(events))
	for i, ev := range events {
		switch e := ev.(type) {
		case Placed:
			e.Worker, e.Seq = e.Worker+1, e.Seq+100
			ev = e
		case JobAdmitted:
			e.Reserved *= 3
			ev = e
		case Commit:
			e.JobID, e.MTID, e.Worker, e.Seq, e.Seconds = e.JobID+1, e.MTID+1, e.Worker+1, e.Seq+100, e.Seconds*2
			e.Writes = append(e.Writes, CommitWrite{DS: 7, Part: 7})
			ev = e
		case TaskCommitted:
			e.Seq += 100
			ev = e
		case WorkerRegistered:
			e.Cores *= 2
			ev = e
		}
		varied[i] = ev
	}
	a, b := buildState(t, events).AppendEncoded(nil), buildState(t, varied).AppendEncoded(nil)
	if !bytes.Equal(a, b) {
		t.Fatalf("unread event fields reached the state:\n  %x\n  %x", a, b)
	}
}

// TestRegistrationNamesKnownOrNextSlot: a registration takes an existing slot
// or the next one; one naming a slot past the next is ignored, so no record
// can grow the registry beyond one slot.
func TestRegistrationNamesKnownOrNextSlot(t *testing.T) {
	st := New()
	for _, ev := range []WorkerRegistered{
		{Worker: 0, ShuffleAddr: "w0"},
		{Worker: 5, ShuffleAddr: "w5"}, // past the next slot
		{Worker: 1, ShuffleAddr: "w1"},
		{Worker: 0, ShuffleAddr: "w0'"}, // a re-attach rewrites its slot
		{Worker: 3, ShuffleAddr: "w3"},
	} {
		Apply(st, ev)
	}
	want := []WorkerState{{ShuffleAddr: "w0'"}, {ShuffleAddr: "w1"}}
	if !reflect.DeepEqual(st.Workers, want) {
		t.Fatalf("workers = %+v, want %+v", st.Workers, want)
	}
}

// TestOriginsSortedUnique checks the origin list invariant (sorted, no
// duplicates) that the canonical encoding depends on.
func TestOriginsSortedUnique(t *testing.T) {
	st := New()
	key := PartKey{1, 5, 7}
	for _, w := range []int32{3, 1, 3, 2, 1} {
		st.addOrigin(key, w)
	}
	got := st.Origins[key]
	want := []int32{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("origins = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("origins = %v, want %v", got, want)
		}
	}
}

// TestEventCodecRoundTrip: every event type survives encode→decode→encode
// with byte-identical payloads.
func TestEventCodecRoundTrip(t *testing.T) {
	for i, ev := range sampleEvents() {
		p := AppendEvent(nil, ev)
		dec, err := DecodeEvent(p)
		if err != nil {
			t.Fatalf("event %d: decode: %v", i, err)
		}
		p2 := AppendEvent(nil, dec)
		if !bytes.Equal(p, p2) {
			t.Fatalf("event %d (%T): re-encode differs:\n  %x\n  %x", i, ev, p, p2)
		}
	}
}

// TestReplayDeterminism: replaying the encoded event stream into a fresh
// state yields byte-identical encoding — the failover guarantee, at the
// state-machine layer — and a tail holding a record no event type decodes
// (type 12, what an older build journaled for a mid-run join) is refused.
func TestReplayDeterminism(t *testing.T) {
	events := sampleEvents()
	live := buildState(t, events)

	var payloads [][]byte
	for _, ev := range events {
		payloads = append(payloads, AppendEvent(nil, ev))
	}
	replayed, err := Replay(nil, payloads)
	if err != nil {
		t.Fatal(err)
	}

	a, b := live.AppendEncoded(nil), replayed.AppendEncoded(nil)
	if !bytes.Equal(a, b) {
		t.Fatalf("replayed state differs from live state:\n live   %x\n replay %x", a, b)
	}

	joined := append([]byte{12}, AppendEvent(nil, WorkerRegistered{Worker: 2, ShuffleAddr: "w2:1"})[1:]...)
	if _, err := Replay(nil, append(payloads, joined)); err == nil {
		t.Fatal("a tail with an unknown event type replayed without error")
	}
}

// TestSnapshotPlusTailEquivalence: for every split point k, decoding the
// snapshot of the first k events and applying the remaining tail produces
// the same bytes as applying everything — the journal compaction contract.
func TestSnapshotPlusTailEquivalence(t *testing.T) {
	events := sampleEvents()
	full := buildState(t, events).AppendEncoded(nil)

	for k := 0; k <= len(events); k++ {
		head := New()
		for _, ev := range events[:k] {
			Apply(head, ev)
		}
		snap := head.AppendEncoded(nil)
		restored, err := DecodeState(snap)
		if err != nil {
			t.Fatalf("split %d: decode snapshot: %v", k, err)
		}
		// The snapshot itself must re-encode identically.
		if got := restored.AppendEncoded(nil); !bytes.Equal(got, snap) {
			t.Fatalf("split %d: snapshot round-trip differs", k)
		}
		for _, ev := range events[k:] {
			Apply(restored, ev)
		}
		if got := restored.AppendEncoded(nil); !bytes.Equal(got, full) {
			t.Fatalf("split %d: snapshot+tail differs from full replay", k)
		}
	}
}

// TestDecodeStateRejectsJunk: corrupt snapshots error, never panic.
func TestDecodeStateRejectsJunk(t *testing.T) {
	good := buildState(t, sampleEvents()).AppendEncoded(nil)
	cases := [][]byte{
		nil,
		[]byte("UCPS"),
		[]byte("XXXX\x01"),
		good[:len(good)-3],                       // truncated
		append(good[:len(good):len(good)], 0xff), // trailing byte
	}
	for i, p := range cases {
		if _, err := DecodeState(p); err == nil {
			t.Fatalf("case %d: corrupt snapshot decoded without error", i)
		}
	}
	// Flipped version byte.
	bad := append([]byte(nil), good...)
	bad[4] ^= 0xff
	if _, err := DecodeState(bad); err == nil {
		t.Fatal("wrong-version snapshot decoded without error")
	}
	// Two jobs under one ID: well-formed field by field, but no encoder
	// wrote it, and it would not re-encode to itself.
	dup := New()
	Apply(dup, JobSubmitted{JobID: 1, Workload: "a"})
	Apply(dup, JobSubmitted{JobID: 2, Workload: "b"})
	bad = dup.AppendEncoded(nil)
	bad[bytes.LastIndex(bad, []byte{0, 0, 0, 0, 0, 0, 0, 2})+7] = 1 // job 2's ID
	if _, err := DecodeState(bad); err == nil {
		t.Fatal("snapshot with a duplicate job ID decoded without error")
	}
}

// TestApplyOrderIndependentEncoding: two states fed the same events must
// encode identically even when map iteration order would differ — exercised
// by applying a long pseudo-random event stream twice with differently
// pre-warmed maps.
func TestApplyOrderIndependentEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var events []Event
	for w := int32(0); w < 4; w++ {
		events = append(events, WorkerRegistered{Worker: w, ShuffleAddr: "x", Cores: 4})
	}
	for j := int64(1); j <= 20; j++ {
		events = append(events, JobSubmitted{JobID: j, Tenant: "t", Workload: "wl"})
		events = append(events, JobAdmitted{JobID: j, Reserved: float64(j)})
	}
	for i := 0; i < 400; i++ {
		j := int64(rng.Intn(20) + 1)
		task := int32(rng.Intn(10))
		if rng.Intn(2) == 0 {
			events = append(events, TaskCommitted{JobID: j, Task: task, Worker: int32(rng.Intn(4)), Seq: uint64(i),
				MTs: []MTCommit{{MTID: task, Seconds: float64(i), Writes: []CommitWrite{{DS: int32(j), Part: task}}}}})
		}
	}
	for j := int64(1); j <= 10; j++ {
		events = append(events, JobFinished{JobID: j})
	}

	a := buildState(t, events)
	// Pre-warm b's maps with entries that are deleted again, perturbing
	// iteration order without changing logical content.
	b := New()
	for i := int64(1000); i < 1100; i++ {
		b.Commits[TaskKey{i, 0}] = nil
		b.Origins[PartKey{i, 0, 0}] = []int32{9}
	}
	for i := int64(1000); i < 1100; i++ {
		delete(b.Commits, TaskKey{i, 0})
		delete(b.Origins, PartKey{i, 0, 0})
	}
	for _, ev := range events {
		Apply(b, ev)
	}
	if !bytes.Equal(a.AppendEncoded(nil), b.AppendEncoded(nil)) {
		t.Fatal("encoding depends on map iteration history")
	}
}
