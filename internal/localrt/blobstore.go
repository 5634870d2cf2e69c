package localrt

import (
	"errors"
	"fmt"
	"os"

	"ursa/internal/dag"
)

// This file is the encode-once half of the contribution store. The data
// plane's invariant: a contribution's rows are serialized to wire bytes
// exactly once — at produce time on the worker that ran the monotask (or on
// first serve, for job inputs) — and that byte-slice is what flows
// everywhere: into the TaskDone record, into the master's canonical store,
// out of every shuffle-fetch serve, and into the fetching peer's store.
// Decoding happens exactly once too, at the single consumption site (gather
// or result read). The flags byte and raw length travel with the bytes, and
// the codec checks both when it decodes.
//
// The store also enforces a memory budget: when cached blob bytes exceed it,
// the oldest blobs are spilled to an append-only temp file and their
// in-memory copies (blob and decoded rows) dropped. Spilled contributions
// are served by chunked file reads and decoded on demand, uncached — the
// budget stays honest under re-reads.

// BlobCodec serializes rows to self-describing blobs and back. The flags
// byte and raw length are opaque to this package; they travel with the blob
// so any node can decode it. Implemented by the remote layer's row codec
// (internal/remote/workload.Codec) — defined here so the store can stay
// ignorant of row encodings and the workload package ignorant of storage.
type BlobCodec interface {
	// EncodeBlob serializes rows. rawLen is the encoded length the blob
	// declares.
	EncodeBlob(rows []Row) (blob []byte, flags byte, rawLen int, err error)
	// DecodeBlob reverses EncodeBlob, rejecting flags or a rawLen it did
	// not produce.
	DecodeBlob(blob []byte, flags byte, rawLen int) ([]Row, error)
}

// contrib is one producer's contribution as stored: decoded rows, encoded
// blob, or (when spilled) a file location — in any combination. rows==nil
// with blob!=nil is a fetched-but-not-yet-consumed contribution; the reverse
// is a local contribution not yet served.
type contrib struct {
	mtID   int
	rows   []Row
	blob   []byte
	flags  byte
	rawLen int

	spilled  bool
	spillOff int64
	spillLen int
}

// spillKey addresses a contribution for the spill FIFO. Indices shift under
// sorted insert, so the queue stores identities and re-resolves on pop.
type spillKey struct {
	d    *dag.Dataset
	part int
	mtID int
}

// spillState is the store's disk half: one lazily created append-only temp
// file per runtime plus the FIFO of spill candidates.
type spillState struct {
	budget int64 // in-memory blob byte budget; 0 disables spilling
	dir    string
	file   *os.File
	off    int64
	err    error // first write failure; spilling degrades to in-memory
	queue  []spillKey
	closed bool
}

// SetCodec installs the row codec, enabling the encode-once blob cache.
// Without a codec the runtime is rows-only (the pure-local fast path: no
// serialization cost). Must be set before execution starts.
func (r *Runtime) SetCodec(c BlobCodec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.codec = c
}

// SetSpill configures the memory budget (bytes of cached blobs) and the
// spill directory ("" = the system temp dir). budget <= 0 disables
// spilling. A tiny budget (e.g. 1) spills every contribution — the
// larger-than-memory test mode.
func (r *Runtime) SetSpill(budget int64, dir string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spill.budget = budget
	r.spill.dir = dir
}

// BlobBytes reports the bytes of blobs currently cached in memory.
func (r *Runtime) BlobBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.blobBytes
}

// SpilledBytes reports the total bytes written to the spill file.
func (r *Runtime) SpilledBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spill.off
}

// Close releases the runtime's disk state (the spill file, if one was
// created). In-memory contributions stay readable; spilled ones become
// unavailable — callers close only when the job's data is no longer needed.
// Idempotent.
func (r *Runtime) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spill.closed = true
	if r.spill.file != nil {
		name := r.spill.file.Name()
		r.spill.file.Close()
		os.Remove(name)
		r.spill.file = nil
	}
}

// InsertEncoded records one producer's pre-encoded contribution — the
// receive half of the data plane (master checkpointing a record's writes,
// an agent storing fetched partitions). The store takes ownership of blob.
// Idempotent per (dataset, part, producer), like InsertContribution. Rows
// are decoded lazily at consumption.
func (r *Runtime) InsertEncoded(d *dag.Dataset, part, mtID int, blob []byte, flags byte, rawLen int) {
	if len(blob) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.insertContribLocked(d, part, contrib{
		mtID: mtID, blob: blob, flags: flags, rawLen: rawLen,
	})
}

// BlobRef is one contribution's serve handle: either in-memory bytes (Data)
// or a spill-file location read via ReadAt. Len and the codec metadata are
// valid either way. The shuffle server slices Data straight into outgoing
// frames, or streams spilled bytes in chunks — both paths emit the exact
// bytes the producer committed.
type BlobRef struct {
	MTID   int
	Flags  byte
	RawLen int
	Len    int
	Data   []byte // nil when spilled
	file   *os.File
	off    int64
}

// InMemory reports whether Data holds the blob.
func (b *BlobRef) InMemory() bool { return b.Data != nil }

// ReadAt reads spilled blob bytes at offset off within the blob. Fails once
// the runtime is closed (the file is gone) — callers surface that as a
// fetch error and the requester falls back or retries.
func (b *BlobRef) ReadAt(p []byte, off int64) (int, error) {
	if b.file == nil {
		return 0, errors.New("localrt: blob not spilled")
	}
	return b.file.ReadAt(p, b.off+off)
}

// PartBlobsAppend appends serve handles for a partition's contributions, in
// canonical (producer-sorted) order, to dst and returns it — the zero-copy
// serve path. In-memory handles alias the store's cached blobs (immutable by
// contract); job-input partitions that were never served before are made,
// if generated, and encoded (once) on first call.
func (r *Runtime) PartBlobsAppend(dst []BlobRef, d *dag.Dataset, part int) ([]BlobRef, error) {
	r.makeInputs(d, part, part+1)
	r.mu.Lock()
	defer r.mu.Unlock()
	parts := r.store[d]
	if part < 0 || part >= len(parts) {
		return dst, nil
	}
	for i := range parts[part] {
		c := &parts[part][i]
		if c.spilled {
			if r.spill.closed {
				return dst, errors.New("localrt: store closed")
			}
			dst = append(dst, BlobRef{
				MTID: c.mtID, Flags: c.flags, RawLen: c.rawLen,
				Len: c.spillLen, file: r.spill.file, off: c.spillOff,
			})
			continue
		}
		blob, flags, rawLen, err := r.blobOfLocked(d, part, c)
		if err != nil {
			return dst, err
		}
		dst = append(dst, BlobRef{
			MTID: c.mtID, Flags: flags, RawLen: rawLen,
			Len: len(blob), Data: blob,
		})
	}
	return dst, nil
}

// ContribBlob returns one contribution's encoded bytes plus codec metadata —
// what an agent ships inside a TaskDone record's write. Spilled contributions are
// read back from disk (without re-caching).
func (r *Runtime) ContribBlob(d *dag.Dataset, part, mtID int) (blob []byte, flags byte, rawLen int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.findContribLocked(d, part, mtID)
	if c == nil {
		return nil, 0, 0, fmt.Errorf("localrt: no contribution for dataset %d part %d mt %d", d.ID, part, mtID)
	}
	if c.spilled {
		b, err := r.readSpilledLocked(c)
		return b, c.flags, c.rawLen, err
	}
	return r.blobOfLocked(d, part, c)
}

// blobOfLocked returns c's encoded bytes for a non-spilled contribution,
// encoding and caching them if only rows are held.
func (r *Runtime) blobOfLocked(d *dag.Dataset, part int, c *contrib) ([]byte, byte, int, error) {
	if c.blob != nil {
		return c.blob, c.flags, c.rawLen, nil
	}
	if r.codec == nil {
		return nil, 0, 0, errors.New("localrt: no codec installed")
	}
	blob, flags, rawLen, err := encodeWith(r.codec, c.rows)
	if err != nil {
		return nil, 0, 0, err
	}
	c.blob, c.flags, c.rawLen = blob, flags, rawLen
	r.accountBlobLocked(d, part, c)
	return c.blob, c.flags, c.rawLen, nil
}

func encodeWith(codec BlobCodec, rows []Row) ([]byte, byte, int, error) {
	blob, flags, rawLen, err := codec.EncodeBlob(rows)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("localrt: encode contribution: %w", err)
	}
	return blob, flags, rawLen, nil
}

// rowsOfLocked returns c's decoded rows, decoding the blob on first
// consumption. Spilled contributions decode from disk without re-caching.
// The decode runs under r.mu: this is the result-read path (Rows,
// Partitions), which runs once, after execution; gather decodes outside the
// lock (partRows).
func (r *Runtime) rowsOfLocked(c *contrib) ([]Row, error) {
	if c.rows != nil {
		return c.rows, nil
	}
	blob, err := r.pendingBlobLocked(c)
	if blob == nil || err != nil {
		return nil, err
	}
	rows, err := decodeWith(r.codec, blob, c.flags, c.rawLen)
	if err != nil {
		return nil, err
	}
	if !c.spilled {
		c.rows = rows
	}
	return rows, nil
}

// pendingBlobLocked returns the bytes c's rows must be decoded from: the
// cached blob, or the spilled one read back from disk. nil means c holds no
// rows at all.
func (r *Runtime) pendingBlobLocked(c *contrib) ([]byte, error) {
	if c.spilled {
		return r.readSpilledLocked(c)
	}
	return c.blob, nil
}

func decodeWith(codec BlobCodec, blob []byte, flags byte, rawLen int) ([]Row, error) {
	if codec == nil {
		return nil, errors.New("localrt: no codec installed")
	}
	rows, err := codec.DecodeBlob(blob, flags, rawLen)
	if err != nil {
		return nil, fmt.Errorf("localrt: decode contribution: %w", err)
	}
	return rows, nil
}

// partContrib is one contribution of a partition as gather consumes it.
type partContrib struct {
	part, mtID int
	rows       []Row
	// What rows is decoded from, while it is nil.
	blob   []byte
	flags  byte
	rawLen int
}

// partRows resolves partitions [lo, hi) of d to decoded contributions in
// canonical order. r.mu is held only to resolve each contribution to its
// rows or its blob and, afterwards, to publish what this call decoded; the
// decoding itself runs unlocked, so an agent's cores decode different
// contributions at once and commits and shuffle serves of the job do not
// queue behind a decode. Two gathers that race to decode one contribution
// both decode it; the first to publish wins and the other adopts its rows.
func (r *Runtime) partRows(d *dag.Dataset, lo, hi int) ([]partContrib, error) {
	r.makeInputs(d, lo, hi)
	r.mu.Lock()
	codec := r.codec
	parts := r.store[d]
	if hi > len(parts) {
		hi = len(parts)
	}
	n := 0
	for pi := lo; pi < hi; pi++ {
		n += len(parts[pi])
	}
	crs := make([]partContrib, 0, n)
	for pi := lo; pi < hi; pi++ {
		p := parts[pi]
		for i := range p {
			c := &p[i]
			pc := partContrib{part: pi, mtID: c.mtID, rows: c.rows, flags: c.flags, rawLen: c.rawLen}
			if pc.rows == nil {
				blob, err := r.pendingBlobLocked(c)
				if err != nil {
					r.mu.Unlock()
					return nil, err
				}
				pc.blob = blob
			}
			crs = append(crs, pc)
		}
	}
	r.mu.Unlock()

	decoded := false
	for i := range crs {
		pc := &crs[i]
		if pc.blob == nil {
			continue
		}
		rows, err := decodeWith(codec, pc.blob, pc.flags, pc.rawLen)
		if err != nil {
			return nil, err
		}
		pc.rows = rows
		decoded = true
	}
	if !decoded {
		return crs, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range crs {
		pc := &crs[i]
		if pc.blob == nil {
			continue
		}
		// Re-resolve by identity: inserts since the first pass may have
		// moved the contribution. A spilled one stays uncached, so the
		// memory budget stays honest under re-reads.
		c := r.findContribLocked(d, pc.part, pc.mtID)
		switch {
		case c == nil || c.spilled:
		case c.rows == nil:
			c.rows = pc.rows
		default:
			pc.rows = c.rows
		}
	}
	return crs, nil
}

func (r *Runtime) readSpilledLocked(c *contrib) ([]byte, error) {
	if r.spill.closed || r.spill.file == nil {
		return nil, errors.New("localrt: store closed")
	}
	b := make([]byte, c.spillLen)
	if _, err := r.spill.file.ReadAt(b, c.spillOff); err != nil {
		return nil, fmt.Errorf("localrt: read spilled contribution: %w", err)
	}
	return b, nil
}

// accountBlobLocked charges a newly cached blob against the budget and
// enqueues it as a spill candidate, spilling the oldest blobs if the budget
// is now exceeded.
func (r *Runtime) accountBlobLocked(d *dag.Dataset, part int, c *contrib) {
	r.blobBytes += int64(len(c.blob))
	if r.spill.budget <= 0 {
		return
	}
	r.spill.queue = append(r.spill.queue, spillKey{d: d, part: part, mtID: c.mtID})
	r.maybeSpillLocked()
}

// maybeSpillLocked evicts FIFO until cached blob bytes fit the budget. A
// write failure disables spilling for the runtime (recorded once) and
// execution degrades to fully in-memory — correctness over memory ceiling.
func (r *Runtime) maybeSpillLocked() {
	for r.blobBytes > r.spill.budget && len(r.spill.queue) > 0 && r.spill.err == nil && !r.spill.closed {
		key := r.spill.queue[0]
		r.spill.queue = r.spill.queue[1:]
		c := r.findContribLocked(key.d, key.part, key.mtID)
		if c == nil || c.spilled || c.blob == nil {
			continue
		}
		if r.spill.file == nil {
			f, err := os.CreateTemp(r.spill.dir, "ursa-spill-*.bin")
			if err != nil {
				r.spill.err = err
				return
			}
			r.spill.file = f
		}
		n, err := r.spill.file.WriteAt(c.blob, r.spill.off)
		if err != nil {
			r.spill.err = err
			return
		}
		c.spilled = true
		c.spillOff = r.spill.off
		c.spillLen = n
		r.spill.off += int64(n)
		r.blobBytes -= int64(len(c.blob))
		c.blob = nil
		c.rows = nil
	}
}

// findContribLocked resolves a contribution by identity.
func (r *Runtime) findContribLocked(d *dag.Dataset, part, mtID int) *contrib {
	parts := r.store[d]
	if part < 0 || part >= len(parts) {
		return nil
	}
	p := parts[part]
	i := sortSearchMTID(p, mtID)
	if i < len(p) && p[i].mtID == mtID {
		return &p[i]
	}
	return nil
}

// SpillErr reports the first spill write failure, if any (the runtime keeps
// running in-memory past it).
func (r *Runtime) SpillErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spill.err
}
