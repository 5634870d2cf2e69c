// Package journal is an append-only, CRC-checksummed record log with
// snapshots and compaction — the persistence layer under the control-plane
// state machine (internal/cpstate). It follows the internal/wire codec
// discipline: explicit length-prefixed binary records, defensive reads
// (adversarial lengths cannot panic or balloon allocation), and a strict
// distinction between the two corruption classes a crash can leave behind:
//
//   - a torn tail — the process died mid-append, the final record is
//     incomplete, or the file system kept the segment's new length but not
//     its data, so the tail reads back as zeros. Open silently truncates it
//     away: those bytes were never acknowledged as durable.
//   - a corrupt body — a complete record whose CRC does not match. That is
//     data loss in acknowledged history; Open refuses the journal.
//
// Layout on disk (all integers big-endian):
//
//	log-<index>.log:   "UJNL" u8(version) u64(firstIndex)   — segment header
//	                   repeated records: u32(len) u32(crc32-IEEE of payload) payload
//	snap-<index>.snap: "USNP" u8(version) u64(index) u32(len) u32(crc) payload
//
// A snapshot at index i captures the state after applying records [0, i).
// Snapshot only makes the cut, in memory: later appends belong to segment
// log-<i>. The disk work follows in order on the flush path — the old
// segment's tail and fsync, the snap file (temp + rename + dir fsync), the
// fresh log-<i> segment, and the deletion of the segments and snapshots that
// precede it — compaction bounded only by snapshot cadence.
//
// Appends are buffered; durability is batched. Neither Append nor Snapshot
// touches the disk. The owner calls Sync explicitly, or a SyncInterval is
// configured and the background flusher syncs at that cadence — one fsync
// absorbing every append since the last, the classic group-commit trade:
// bounded loss window (unsynced suffix re-executes, it was never
// acknowledged), full throughput. All file I/O happens on that one ordered
// path, so the bytes on disk are always a prefix of the history in memory: a
// segment receives records only after its predecessor is complete and
// fsynced and the snapshot between them has landed.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	segMagic  = "UJNL"
	snapMagic = "USNP"
	version   = 1

	segHeaderLen  = 4 + 1 + 8
	recHeaderLen  = 4 + 4
	snapHeaderLen = 4 + 1 + 8 + 4 + 4
)

// MaxRecord bounds one record's payload — far above any control-plane
// event, low enough that a corrupt length prefix cannot force a huge
// allocation.
const MaxRecord = 16 << 20

// ErrCorrupt marks acknowledged history that fails its checksum — unlike a
// torn tail, this is not survivable by truncation.
var ErrCorrupt = errors.New("journal: corrupt record (bad checksum)")

// Options shape a journal.
type Options struct {
	// SyncInterval batches fsyncs: the background flusher syncs dirty appends
	// at this cadence. With 0 it runs only to complete snapshots, and the
	// owner calls Sync for durability in between.
	SyncInterval time.Duration
}

// Replayed is what Open recovered: the newest valid snapshot (nil if none)
// and every event payload appended after it, in order.
type Replayed struct {
	// Snapshot is the snapshot payload (cpstate encoding), nil if none.
	Snapshot []byte
	// SnapIndex is the record index the snapshot covers up to.
	SnapIndex uint64
	// Events are the record payloads after the snapshot, in append order.
	Events [][]byte
	// NextIndex is the index the next Append receives.
	NextIndex uint64
}

// Journal is an open, writable journal. Methods are safe for one writer at
// a time plus the background flusher.
type Journal struct {
	dir string
	opt Options

	// mu guards the in-memory log. Append and Snapshot take only mu, so
	// they never wait for the disk.
	mu    sync.Mutex
	wbuf  []byte // appended to the newest segment but not yet written
	spare []byte // the other half of wbuf's double buffer
	cuts  []cut  // snapshots taken but not yet on disk, oldest first
	// stateBuf is the payload buffer of a snapshot already on disk, kept for
	// the next Snapshot to encode into: a fresh megabyte-sized buffer costs
	// its writer more (growth, zeroing, page faults) than encoding it.
	stateBuf []byte
	next     uint64 // index of the next record
	err      error  // sticky write error

	appends   uint64 // records appended over this Journal's lifetime
	syncs     uint64
	snapshots uint64 // snapshots completed on disk

	// ioMu serializes the flush path and guards the on-disk segment it
	// writes. It is taken before mu, never while holding it.
	ioMu    sync.Mutex
	f       *os.File
	dirty   bool   // written but not yet fsynced
	segBase uint64 // first index of the segment f

	kick     chan struct{} // a snapshot was cut: flush without waiting for the tick
	quit     chan struct{}
	quitOnce sync.Once
	wg       sync.WaitGroup
}

// cut is a snapshot taken in memory whose disk work is pending: tail is what
// the segment it closes had buffered, idx the snapshot's index and the base
// of the successor segment, state the snapshot payload.
type cut struct {
	tail  []byte
	idx   uint64
	state []byte
}

// Open opens (or creates) the journal in dir and replays it: the newest
// valid snapshot plus every record after it. A torn final record is
// truncated away; a checksum failure anywhere else returns ErrCorrupt.
func Open(dir string, opt Options) (*Journal, Replayed, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Replayed{}, fmt.Errorf("journal: %w", err)
	}
	snapIdx, snap, err := loadNewestSnapshot(dir)
	if err != nil {
		return nil, Replayed{}, err
	}
	rep := Replayed{Snapshot: snap, SnapIndex: snapIdx, NextIndex: snapIdx}

	segs, err := listSegments(dir)
	if err != nil {
		return nil, Replayed{}, err
	}
	var lastSeg uint64
	haveSeg := false
	for _, base := range segs {
		if base < snapIdx {
			continue // pre-snapshot segment awaiting compaction
		}
		events, n, err := replaySegment(filepath.Join(dir, segName(base)), base)
		if err != nil {
			return nil, Replayed{}, err
		}
		if base != rep.NextIndex {
			return nil, Replayed{}, fmt.Errorf("journal: segment gap: have %d, next segment starts at %d", rep.NextIndex, base)
		}
		rep.Events = append(rep.Events, events...)
		rep.NextIndex = base + n
		lastSeg, haveSeg = base, true
	}

	j := &Journal{dir: dir, opt: opt, next: rep.NextIndex,
		kick: make(chan struct{}, 1), quit: make(chan struct{})}
	if haveSeg {
		j.segBase = lastSeg
		f, err := os.OpenFile(filepath.Join(dir, segName(lastSeg)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, Replayed{}, fmt.Errorf("journal: %w", err)
		}
		j.f = f
	} else {
		if err := j.openSegment(rep.NextIndex); err != nil {
			return nil, Replayed{}, err
		}
	}
	j.wg.Add(1)
	go j.flusher()
	return j, rep, nil
}

func segName(base uint64) string { return fmt.Sprintf("log-%016x.log", base) }
func snapName(idx uint64) string { return fmt.Sprintf("snap-%016x.snap", idx) }
func parseBase(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	return v, err == nil
}

func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var out []uint64
	for _, ent := range ents {
		if base, ok := parseBase(ent.Name(), "log-", ".log"); ok {
			out = append(out, base)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// loadNewestSnapshot returns the newest snapshot that passes its checksum.
// Snapshots are written atomically (temp + rename), so a half-written file
// never carries the .snap name; a .snap that fails its CRC is corruption
// and fails the open.
func loadNewestSnapshot(dir string) (uint64, []byte, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, nil, fmt.Errorf("journal: %w", err)
	}
	var best uint64
	var found bool
	for _, ent := range ents {
		if idx, ok := parseBase(ent.Name(), "snap-", ".snap"); ok {
			if !found || idx > best {
				best, found = idx, true
			}
		}
	}
	if !found {
		return 0, nil, nil
	}
	payload, err := readSnapshot(filepath.Join(dir, snapName(best)), best)
	if err != nil {
		return 0, nil, err
	}
	return best, payload, nil
}

func readSnapshot(path string, want uint64) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if len(b) < snapHeaderLen || string(b[:4]) != snapMagic || b[4] != version {
		return nil, fmt.Errorf("journal: %s: bad snapshot header", filepath.Base(path))
	}
	idx := binary.BigEndian.Uint64(b[5:])
	n := binary.BigEndian.Uint32(b[13:])
	crc := binary.BigEndian.Uint32(b[17:])
	if idx != want {
		return nil, fmt.Errorf("journal: %s: index %d != filename %d", filepath.Base(path), idx, want)
	}
	payload := b[snapHeaderLen:]
	if uint32(len(payload)) != n {
		return nil, fmt.Errorf("journal: %s: snapshot length %d != declared %d", filepath.Base(path), len(payload), n)
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("%w: snapshot %s", ErrCorrupt, filepath.Base(path))
	}
	return payload, nil
}

// replaySegment reads one segment's records. A torn tail starts at the first
// record that ends past EOF, that has a zero length (Append writes no empty
// record, so that is where a zero-filled tail begins), or whose CRC fails
// while its bytes run into the zeros that end the file: the file is
// truncated back to the last complete record and replay succeeds with the
// prefix. Any other record with a bad CRC is corruption: ErrCorrupt. (A last
// record that ends in a zero byte and is corrupted elsewhere reads as torn:
// the two cannot be told apart.)
func replaySegment(path string, base uint64) ([][]byte, uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	zeros := len(b) // where the run of zero bytes that ends the file begins
	for zeros > 0 && b[zeros-1] == 0 {
		zeros--
	}
	if zeros < segHeaderLen {
		// Torn during creation: header never completed (or zero-filled), no
		// records lost.
		if err := os.WriteFile(path, segHeader(base), 0o644); err != nil {
			return nil, 0, fmt.Errorf("journal: %w", err)
		}
		return nil, 0, nil
	}
	if string(b[:4]) != segMagic || b[4] != version {
		return nil, 0, fmt.Errorf("journal: %s: bad segment header", filepath.Base(path))
	}
	if got := binary.BigEndian.Uint64(b[5:]); got != base {
		return nil, 0, fmt.Errorf("journal: %s: base %d != filename %d", filepath.Base(path), got, base)
	}
	var events [][]byte
	off := segHeaderLen
	for off < len(b) {
		if len(b)-off < recHeaderLen {
			break // torn tail: header incomplete
		}
		n := binary.BigEndian.Uint32(b[off:])
		crc := binary.BigEndian.Uint32(b[off+4:])
		if n == 0 {
			break // torn tail: zero-filled
		}
		if n > MaxRecord {
			return nil, 0, fmt.Errorf("journal: %s: record of %d bytes exceeds limit", filepath.Base(path), n)
		}
		if len(b)-off-recHeaderLen < int(n) {
			break // torn tail: payload incomplete
		}
		end := off + recHeaderLen + int(n)
		payload := b[off+recHeaderLen : end]
		if crc32.ChecksumIEEE(payload) != crc {
			if end > zeros {
				break // torn tail: the record's end was zero-filled
			}
			return nil, 0, fmt.Errorf("%w: %s record %d", ErrCorrupt, filepath.Base(path), base+uint64(len(events)))
		}
		events = append(events, append([]byte(nil), payload...))
		off = end
	}
	if off < len(b) {
		if err := os.Truncate(path, int64(off)); err != nil {
			return nil, 0, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	return events, uint64(len(events)), nil
}

// segHeader is the header a segment whose first record is base starts with.
func segHeader(base uint64) []byte {
	hdr := make([]byte, segHeaderLen)
	copy(hdr, segMagic)
	hdr[4] = version
	binary.BigEndian.PutUint64(hdr[5:], base)
	return hdr
}

func (j *Journal) openSegment(base uint64) error {
	path := filepath.Join(j.dir, segName(base))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Write(segHeader(base)); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	j.f = f
	j.segBase = base
	return nil
}

// Append buffers one record. Durability follows at the next Sync (explicit
// or from the background flusher). Returns the record's index. An empty
// payload is refused: replay reads a zero length as a zero-filled tail.
func (j *Journal) Append(payload []byte) (uint64, error) {
	if len(payload) == 0 {
		return 0, errors.New("journal: empty record")
	}
	if len(payload) > MaxRecord {
		return 0, fmt.Errorf("journal: %d-byte record exceeds limit", len(payload))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return 0, j.err
	}
	var hdr [recHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	j.wbuf = append(j.wbuf, hdr[:]...)
	j.wbuf = append(j.wbuf, payload...)
	idx := j.next
	j.next++
	j.appends++
	return idx, nil
}

// Sync brings the disk up to date with memory — the group commit. It
// completes pending snapshots oldest first, then writes and fsyncs what the
// newest segment has buffered.
func (j *Journal) Sync() error {
	j.ioMu.Lock()
	defer j.ioMu.Unlock()
	for {
		j.mu.Lock()
		if j.err != nil {
			j.mu.Unlock()
			return j.err
		}
		var c cut
		var buf []byte
		snap := len(j.cuts) > 0
		if snap {
			c, j.cuts[0] = j.cuts[0], cut{}
			j.cuts = j.cuts[1:]
			buf = c.tail
		} else {
			buf = j.takeWbuf()
		}
		j.mu.Unlock()

		synced, err := j.writeSync(buf)
		if err == nil && snap {
			err = j.finishSnapshot(c)
		}

		j.mu.Lock()
		if synced {
			j.syncs++
		}
		if err != nil && j.err == nil {
			j.err = err
		}
		if err == nil && snap {
			j.snapshots++
			j.stateBuf = c.state[:0]
		}
		if j.spare == nil {
			j.spare = buf[:0] // written out: reuse it as the next buffer
		}
		err = j.err
		j.mu.Unlock()
		if err != nil || !snap {
			return err
		}
	}
}

// takeWbuf hands over the bytes buffered for the newest segment and installs
// the spare buffer in their place. Caller holds mu.
func (j *Journal) takeWbuf() []byte {
	buf := j.wbuf
	j.wbuf, j.spare = j.spare[:0], nil
	return buf
}

// writeSync appends buf to the current segment file and fsyncs it if
// anything is unsynced. Caller holds ioMu.
func (j *Journal) writeSync(buf []byte) (synced bool, err error) {
	if len(buf) > 0 {
		if _, err := j.f.Write(buf); err != nil {
			return false, fmt.Errorf("journal: %w", err)
		}
		j.dirty = true
	}
	if !j.dirty {
		return false, nil
	}
	if err := j.f.Sync(); err != nil {
		return false, fmt.Errorf("journal: %w", err)
	}
	j.dirty = false
	return true, nil
}

// Snapshot cuts a snapshot covering every record appended so far and directs
// later appends to a fresh segment. encode appends the state's encoding to
// the (recycled, empty) buffer it is given and returns it; it runs before
// Snapshot returns, on the caller's goroutine, so the state it sees is the
// one the records so far produce. Snapshot does no I/O: the flush path (the
// background flusher, Sync, Close) then completes the old segment, writes
// the snapshot file so that it appears atomically, opens the new segment and
// compacts — segments and snapshots entirely covered by the new snapshot are
// deleted. A failure of that disk work surfaces as the journal's sticky
// error.
func (j *Journal) Snapshot(encode func(dst []byte) []byte) error {
	j.mu.Lock()
	if j.err != nil {
		j.mu.Unlock()
		return j.err
	}
	buf := j.stateBuf
	j.stateBuf = nil
	j.mu.Unlock()
	// The one writer is here, so no Append can slip between the encoding and
	// the cut.
	state := encode(buf)
	j.mu.Lock()
	j.cuts = append(j.cuts, cut{tail: j.takeWbuf(), idx: j.next, state: state})
	j.mu.Unlock()
	select {
	case j.kick <- struct{}{}:
	default:
	}
	return nil
}

// finishSnapshot does a cut's disk work once the segment it closes is
// complete and fsynced. Caller holds ioMu.
func (j *Journal) finishSnapshot(c cut) error {
	var hdr [snapHeaderLen]byte
	copy(hdr[:], snapMagic)
	hdr[4] = version
	binary.BigEndian.PutUint64(hdr[5:], c.idx)
	binary.BigEndian.PutUint32(hdr[13:], uint32(len(c.state)))
	binary.BigEndian.PutUint32(hdr[17:], crc32.ChecksumIEEE(c.state))
	tmp := filepath.Join(j.dir, "snap.tmp")
	if err := atomicWrite(tmp, filepath.Join(j.dir, snapName(c.idx)), hdr[:], c.state); err != nil {
		return err
	}

	// Rotate: further appends land in the post-snapshot segment.
	oldSeg := j.segBase
	j.f.Close()
	if err := j.openSegment(c.idx); err != nil {
		return err
	}

	// Compact: everything the new snapshot covers is garbage. Best-effort —
	// a leftover file is re-deleted at the next snapshot.
	if segs, err := listSegments(j.dir); err == nil {
		for _, base := range segs {
			if base <= oldSeg && base != c.idx {
				os.Remove(filepath.Join(j.dir, segName(base)))
			}
		}
	}
	if ents, err := os.ReadDir(j.dir); err == nil {
		for _, ent := range ents {
			if si, ok := parseBase(ent.Name(), "snap-", ".snap"); ok && si < c.idx {
				os.Remove(filepath.Join(j.dir, ent.Name()))
			}
		}
	}
	return nil
}

// atomicWrite writes the parts, in order, to tmp, fsyncs, renames onto path
// and fsyncs the directory — the file either exists complete or not at all.
func atomicWrite(tmp, path string, parts ...[]byte) error {
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	for _, p := range parts {
		if _, err = f.Write(p); err != nil {
			break
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// NextIndex returns the index the next Append will receive.
func (j *Journal) NextIndex() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

// Stats returns lifetime counters: records appended, fsyncs, snapshots
// completed on disk, and the bytes buffered in memory awaiting the next
// flush.
func (j *Journal) Stats() (appends, syncs, snapshots uint64, unsyncedBytes int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	unsyncedBytes = len(j.wbuf)
	for i := range j.cuts {
		unsyncedBytes += len(j.cuts[i].tail)
	}
	return j.appends, j.syncs, j.snapshots, unsyncedBytes
}

// flusher is the background flush path: it syncs every SyncInterval (when
// one is configured) and as soon as a snapshot is cut, so a snapshot's disk
// work never waits for its owner to call Sync.
func (j *Journal) flusher() {
	defer j.wg.Done()
	var tick <-chan time.Time
	if j.opt.SyncInterval > 0 {
		t := time.NewTicker(j.opt.SyncInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-j.quit:
			return
		case <-tick:
		case <-j.kick:
		}
		j.Sync() // the error is sticky: the next Append, Sync or Close reports it
	}
}

// Close syncs and releases the journal. Idempotent.
func (j *Journal) Close() error {
	j.quitOnce.Do(func() { close(j.quit) })
	j.wg.Wait()
	err := j.Sync()
	j.ioMu.Lock()
	defer j.ioMu.Unlock()
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
	return err
}
