package core

// headroomIndex is a bucketed per-resource-kind index over workers, keyed
// by their interval-initial headroom D_r(w). It answers "which K workers
// have the most type-r headroom?" in O(K + buckets) instead of scanning all
// W workers, which makes stageScore / bestSingleTask / stageViable cost
// O(stages × tasks × K) per tick (Config.CandidateWorkers).
//
// The index reflects the headroom vectors as of the *start* of the current
// scheduling interval: trial and commit mutations of D during the pass do
// not move workers between buckets (candidate selection is a pre-filter;
// scoring still reads the live D values, so scores stay exact). Across
// ticks the index is maintained incrementally: only workers whose
// snapshot was refreshed are re-bucketed.
//
// Headroom values live in [0, 1] *per worker by construction*, including on
// heterogeneous clusters: D_r = max(0, (EPT−APT_r)/EPT) normalizes each
// worker's load by its own measured rate (APT_r = load_r/rate_r) against
// the shared EPT horizon, and D_mem = free/capacity normalizes by the
// worker's own capacity — no term depends on any other machine's profile,
// so mixed core counts, rates or memory sizes never push a live worker's
// headroom outside the grid. (Failed/draining workers carry D_mem < 0 from
// the -1 memFree sentinel; bucketOf clamps them into bucket 0, and every
// scoring gate rejects them regardless.) A fixed linear bucket grid
// therefore loses no generality; out-of-range values clamp to the boundary
// buckets. Within a bucket, iteration order is insertion order, which is
// deterministic because every mutation of the index is driven by the
// deterministic event loop.
//
// Note the index ranks by headroom D_r only — deliberately not by the
// interference-penalized score: the penalty scales scores by at most 1, so
// ranking by D_r remains an admissible candidate pre-filter, and scoring
// (which applies the penalty) stays exact for whichever candidates are
// examined. With K ≥ W no index is built at all (prepareIndex): the exact
// scan runs.
type headroomIndex struct {
	n       int          // number of indexed workers
	buckets [4][][]int32 // [kind][bucket] → worker ids, low bucket = low headroom
	bucket  [4][]int32   // [kind][worker] → bucket id
	pos     [4][]int32   // [kind][worker] → position within its bucket
}

// idxBuckets is the bucket-grid resolution. 16 buckets over [0,1] keeps
// bucket moves rare (headroom must change by ≥ 1/16 to re-bucket) while
// still ordering candidates usefully.
const idxBuckets = 16

// bucketOf maps a headroom value to its bucket, clamping to [0, idxBuckets).
func bucketOf(v float64) int32 {
	if v <= 0 {
		return 0
	}
	b := int32(v * idxBuckets)
	if b >= idxBuckets {
		b = idxBuckets - 1
	}
	return b
}

// rebuild re-indexes every worker from d, reusing bucket storage.
func (ix *headroomIndex) rebuild(d []dVec) {
	n := len(d)
	ix.n = n
	for k := 0; k < 4; k++ {
		if cap(ix.bucket[k]) < n {
			ix.bucket[k] = make([]int32, n)
			ix.pos[k] = make([]int32, n)
		} else {
			ix.bucket[k] = ix.bucket[k][:n]
			ix.pos[k] = ix.pos[k][:n]
		}
		if ix.buckets[k] == nil {
			ix.buckets[k] = make([][]int32, idxBuckets)
		}
		for b := range ix.buckets[k] {
			ix.buckets[k][b] = ix.buckets[k][b][:0]
		}
		for wi := 0; wi < n; wi++ {
			b := bucketOf(d[wi][k])
			ix.bucket[k][wi] = b
			ix.pos[k][wi] = int32(len(ix.buckets[k][b]))
			ix.buckets[k][b] = append(ix.buckets[k][b], int32(wi))
		}
	}
}

// update re-buckets one worker after its headroom vector changed.
func (ix *headroomIndex) update(wi int, v *dVec) {
	for k := 0; k < 4; k++ {
		nb := bucketOf(v[k])
		ob := ix.bucket[k][wi]
		if nb == ob {
			continue
		}
		// Swap-remove from the old bucket, fixing the moved entry's pos.
		old := ix.buckets[k][ob]
		p := ix.pos[k][wi]
		last := int32(len(old) - 1)
		moved := old[last]
		old[p] = moved
		ix.pos[k][moved] = p
		ix.buckets[k][ob] = old[:last]
		// Append to the new bucket.
		ix.bucket[k][wi] = nb
		ix.pos[k][wi] = int32(len(ix.buckets[k][nb]))
		ix.buckets[k][nb] = append(ix.buckets[k][nb], int32(wi))
	}
}
