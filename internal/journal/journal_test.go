package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, opt Options) (*Journal, Replayed) {
	t.Helper()
	j, rep, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return j, rep
}

func appendAll(t *testing.T, j *Journal, payloads [][]byte) {
	t.Helper()
	for _, p := range payloads {
		if _, err := j.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

// encodes is a Snapshot encoder for a fixed state payload.
func encodes(state []byte) func([]byte) []byte {
	return func(dst []byte) []byte { return append(dst, state...) }
}

func testPayloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("event-%04d-%s", i, string(rune('a'+i%26))))
	}
	return out
}

func checkEvents(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("event %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestAppendReplay: records written are records replayed, in order.
func TestAppendReplay(t *testing.T) {
	dir := t.TempDir()
	payloads := testPayloads(50)

	j, rep := mustOpen(t, dir, Options{})
	if rep.NextIndex != 0 || rep.Snapshot != nil || len(rep.Events) != 0 {
		t.Fatalf("fresh journal replayed %+v", rep)
	}
	appendAll(t, j, payloads)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, rep2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	checkEvents(t, rep2.Events, payloads)
	if rep2.NextIndex != 50 {
		t.Fatalf("NextIndex = %d, want 50", rep2.NextIndex)
	}
	// And appends continue from where the first incarnation stopped.
	if idx, err := j2.Append([]byte("x")); err != nil || idx != 50 {
		t.Fatalf("Append after reopen = (%d, %v), want (50, nil)", idx, err)
	}
}

// TestCrashAtEveryByteBoundary truncates the segment file at every possible
// length and re-opens: the journal must recover the longest complete-record
// prefix and never error — a torn tail is normal crash debris, not
// corruption.
func TestCrashAtEveryByteBoundary(t *testing.T) {
	base := t.TempDir()
	payloads := testPayloads(8)

	ref := filepath.Join(base, "ref")
	j, _ := mustOpen(t, ref, Options{})
	appendAll(t, j, payloads)
	j.Close()
	segs, err := listSegments(ref)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	full, err := os.ReadFile(filepath.Join(ref, segName(0)))
	if err != nil {
		t.Fatal(err)
	}

	// Record boundaries: offsets at which a prefix holds exactly k records.
	bounds := []int{segHeaderLen}
	off := segHeaderLen
	for _, p := range payloads {
		off += recHeaderLen + len(p)
		bounds = append(bounds, off)
	}
	if off != len(full) {
		t.Fatalf("segment length %d, computed %d", len(full), off)
	}
	complete := func(n int) int {
		k := 0
		for k+1 < len(bounds) && bounds[k+1] <= n {
			k++
		}
		return k
	}

	for cut := 0; cut <= len(full); cut++ {
		dir := filepath.Join(base, fmt.Sprintf("cut-%04d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(0)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, rep, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		want := complete(cut)
		checkEvents(t, rep.Events, payloads[:want])
		// The journal must be writable after recovery: append one record and
		// reopen to confirm the truncation left a consistent file.
		if _, err := j.Append([]byte("post-crash")); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		_, rep2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		checkEvents(t, rep2.Events, append(append([][]byte{}, payloads[:want]...), []byte("post-crash")))
	}
}

// TestCorruptRecordRejected: a bit flip inside a complete record's payload
// (or CRC) is acknowledged-history corruption and must fail the open.
func TestCorruptRecordRejected(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j, testPayloads(5))
	j.Close()

	path := filepath.Join(dir, segName(0))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the middle record.
	b[segHeaderLen+2*(recHeaderLen+len(testPayloads(5)[0]))+recHeaderLen+3] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt record accepted")
	}
}

// TestSnapshotCompactsAndReplays: snapshot + tail replay equals the full
// history, old segments and snapshots are deleted.
func TestSnapshotCompactsAndReplays(t *testing.T) {
	dir := t.TempDir()
	payloads := testPayloads(30)

	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j, payloads[:10])
	if err := j.Snapshot(encodes([]byte("state@10"))); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	appendAll(t, j, payloads[10:20])
	if err := j.Snapshot(encodes([]byte("state@20"))); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	appendAll(t, j, payloads[20:])
	j.Close()

	_, rep := mustOpen(t, dir, Options{})
	if string(rep.Snapshot) != "state@20" || rep.SnapIndex != 20 {
		t.Fatalf("snapshot = %q @ %d, want state@20 @ 20", rep.Snapshot, rep.SnapIndex)
	}
	checkEvents(t, rep.Events, payloads[20:])
	if rep.NextIndex != 30 {
		t.Fatalf("NextIndex = %d, want 30", rep.NextIndex)
	}

	// Compaction: only the newest snapshot and post-snapshot segment remain.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		switch ent.Name() {
		case segName(20), snapName(20), LeaseName:
		default:
			t.Fatalf("compaction left %s behind", ent.Name())
		}
	}
}

// TestSnapshotTornTailAfterSnapshot: a torn tail in the post-snapshot
// segment still recovers to snapshot + complete prefix.
func TestSnapshotTornTailAfterSnapshot(t *testing.T) {
	dir := t.TempDir()
	payloads := testPayloads(12)

	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j, payloads[:6])
	if err := j.Snapshot(encodes([]byte("s6"))); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, payloads[6:])
	j.Close()

	path := filepath.Join(dir, segName(6))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	_, rep := mustOpen(t, dir, Options{})
	if string(rep.Snapshot) != "s6" {
		t.Fatalf("snapshot = %q, want s6", rep.Snapshot)
	}
	checkEvents(t, rep.Events, payloads[6:11])
	if rep.NextIndex != 11 {
		t.Fatalf("NextIndex = %d, want 11", rep.NextIndex)
	}
}

// TestBackgroundFlusher: with a SyncInterval, appends become durable
// without explicit Sync calls.
func TestBackgroundFlusher(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{SyncInterval: time.Millisecond})
	if _, err := j.Append([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, syncs, _, unsynced := j.Stats()
		if syncs > 0 && unsynced == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flusher never synced")
		}
		time.Sleep(time.Millisecond)
	}
	j.Close()
	_, rep := mustOpen(t, dir, Options{})
	checkEvents(t, rep.Events, [][]byte{[]byte("hello")})
}

// TestLeaseRoundTrip: lease writes are atomic and parse back exactly.
func TestLeaseRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadLease(dir); err != ErrNoLease {
		t.Fatalf("ReadLease(empty) = %v, want ErrNoLease", err)
	}
	now := time.Now()
	want := Lease{Gen: 3, Holder: "127.0.0.1:9000", Expiry: now.Add(2 * time.Second)}
	if err := WriteLease(dir, want); err != nil {
		t.Fatalf("WriteLease: %v", err)
	}
	got, err := ReadLease(dir)
	if err != nil {
		t.Fatalf("ReadLease: %v", err)
	}
	if got.Gen != want.Gen || got.Holder != want.Holder || !got.Expiry.Equal(want.Expiry) {
		t.Fatalf("lease = %+v, want %+v", got, want)
	}
	if got.Expired(now) {
		t.Fatal("fresh lease reports expired")
	}
	if !got.Expired(now.Add(3 * time.Second)) {
		t.Fatal("lapsed lease reports live")
	}
	// Overwrite bumps generation.
	if err := WriteLease(dir, Lease{Gen: 4, Holder: "b", Expiry: now}); err != nil {
		t.Fatal(err)
	}
	if got, _ := ReadLease(dir); got.Gen != 4 {
		t.Fatalf("gen = %d after overwrite, want 4", got.Gen)
	}
}

// TestOversizeRecordRejected: both the writer and the reader enforce the
// record bound.
func TestOversizeRecordRejected(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	defer j.Close()
	if _, err := j.Append(make([]byte, MaxRecord+1)); err == nil {
		t.Fatal("oversize append accepted")
	}
}

// TestZeroFilledTailIsTorn: a crash can leave a segment whose length grew but
// whose new bytes never reached the disk, so they read back as zeros. Three
// records followed by 4 KiB of zeros replay as the three records, and the
// zeros are truncated away so the next append follows them. Append refuses
// the empty record a zero length would otherwise stand for.
func TestZeroFilledTailIsTorn(t *testing.T) {
	dir := t.TempDir()
	payloads := testPayloads(3)
	j, _ := mustOpen(t, dir, Options{})
	if _, err := j.Append(nil); err == nil {
		t.Fatal("empty append accepted")
	}
	appendAll(t, j, payloads)
	j.Close()

	path := filepath.Join(dir, segName(0))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, make([]byte, 4096)...), 0o644); err != nil {
		t.Fatal(err)
	}
	j, rep := mustOpen(t, dir, Options{})
	checkEvents(t, rep.Events, payloads)
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(b)) {
		t.Fatalf("segment after replay: %v bytes (%v), want %d", fi.Size(), err, len(b))
	}
	appendAll(t, j, [][]byte{[]byte("after")})
	j.Close()
	j, rep = mustOpen(t, dir, Options{})
	defer j.Close()
	checkEvents(t, rep.Events, append(payloads, []byte("after")))
}

// TestSnapshotCrashBeforeSuccessorSegment: the snapshot file lands before its
// successor segment is created, so a crash between the two leaves a snapshot
// with no segment at or after it. Open starts that segment itself.
func TestSnapshotCrashBeforeSuccessorSegment(t *testing.T) {
	dir := t.TempDir()
	payloads := testPayloads(6)
	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j, payloads)
	if err := j.Snapshot(encodes([]byte("s6"))); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := os.Remove(filepath.Join(dir, segName(6))); err != nil {
		t.Fatal(err)
	}

	j, rep := mustOpen(t, dir, Options{})
	if string(rep.Snapshot) != "s6" || rep.SnapIndex != 6 || len(rep.Events) != 0 || rep.NextIndex != 6 {
		t.Fatalf("replayed %q @ %d + %d events, next %d; want s6 @ 6, none, 6",
			rep.Snapshot, rep.SnapIndex, len(rep.Events), rep.NextIndex)
	}
	if _, err := j.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, rep = mustOpen(t, dir, Options{})
	checkEvents(t, rep.Events, [][]byte{[]byte("after")})
}

// TestSnapshotCutIsConsistentUnderConcurrentFlush: Snapshot only cuts in
// memory and the flusher does the disk work behind it, concurrently with
// further appends and cuts. Whatever the interleaving, a reopened journal
// holds a snapshot taken at index i followed by exactly the records from i
// on, and the snapshot is the last one cut.
func TestSnapshotCutIsConsistentUnderConcurrentFlush(t *testing.T) {
	dir := t.TempDir()
	payloads := testPayloads(400)
	j, _ := mustOpen(t, dir, Options{SyncInterval: 50 * time.Microsecond})
	lastCut := 0
	for i, p := range payloads {
		if _, err := j.Append(p); err != nil {
			t.Fatal(err)
		}
		if (i+1)%37 == 0 {
			lastCut = i + 1
			if err := j.Snapshot(encodes([]byte(fmt.Sprintf("state@%d", lastCut)))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, snaps, unsynced := j.Stats(); snaps != uint64(len(payloads)/37) || unsynced != 0 {
		t.Fatalf("after Close: %d snapshots on disk, %d bytes unsynced; want %d and 0", snaps, unsynced, len(payloads)/37)
	}

	_, rep := mustOpen(t, dir, Options{})
	if want := fmt.Sprintf("state@%d", lastCut); string(rep.Snapshot) != want || rep.SnapIndex != uint64(lastCut) {
		t.Fatalf("snapshot = %q @ %d, want %s @ %d", rep.Snapshot, rep.SnapIndex, want, lastCut)
	}
	checkEvents(t, rep.Events, payloads[lastCut:])
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		switch ent.Name() {
		case segName(uint64(lastCut)), snapName(uint64(lastCut)):
		default:
			t.Errorf("compaction left %s behind", ent.Name())
		}
	}
}

// TestSnapshotCompletesWithoutSync: a snapshot's disk work does not wait for
// the owner to call Sync or Close, even with no SyncInterval configured.
func TestSnapshotCompletesWithoutSync(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	defer j.Close()
	appendAll(t, j, testPayloads(5))
	if err := j.Snapshot(encodes([]byte("s5"))); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, _, snaps, _ := j.Stats(); snaps == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("snapshot never reached the disk")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(5))); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}
}
