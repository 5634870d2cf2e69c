// Package localrt is the real execution engine for operation graphs: it
// runs a plan's monotasks on in-memory data with actual goroutines, CPU
// monotasks executing user UDFs and network monotasks moving rows between
// partitions (hash-bucketed for shuffles, replicated for broadcasts). It
// validates the execution layer's semantics independently of the simulator
// and powers the examples and the mini-SQL engine.
package localrt

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"ursa/internal/dag"
	"ursa/internal/resource"
)

// Row is one record of a dataset partition.
type Row = any

// UDF is the user function of a CPU op: it receives one row-slice per
// declared read (in ReadRef order) and returns the rows of the produced
// partition.
type UDF func(inputs [][]Row) []Row

// Keyed lets a row steer itself through a shuffle by the hash of its key,
// HashKey of it; rows that do not implement it are routed deterministically
// by their source partition and ordinal, so runs are reproducible and
// comparable across execution modes.
type Keyed interface {
	ShuffleHash() uint64
}

// PlanInput binds a job-input dataset of a plan to its rows: materialized
// (Rows), or generated (N rows made by Gen, a partition at a time, when a
// monotask first reads the partition).
type PlanInput struct {
	Dataset *dag.Dataset
	Rows    []Row
	// N and Gen are the generated form, used when Gen is set.
	N   int
	Gen PartGen
}

// PartGen makes one partition of a generated job input of parts partitions:
// the rows i of the whole input, in order, with i%parts == part — SplitInput's
// round-robin rule, so PartGen(0, 1) is the whole input. It must be
// deterministic and safe to call from several goroutines at once.
type PartGen func(part, parts int) []Row

// Len returns the rows the input describes, materialized or not.
func (in PlanInput) Len() int {
	if in.Gen != nil {
		return in.N
	}
	return len(in.Rows)
}

// RowsFn resolves the materialized rows of a dataset after execution.
type RowsFn func(*dag.Dataset) []Row

// Runner executes a built plan over materialized inputs and returns a row
// resolver for its datasets. Two implementations exist: LocalRunner (this
// package) runs the plan directly with a goroutine pool and no scheduling;
// live.Runner (internal/live) pushes the same plan through the full Ursa
// scheduler — admission, placement, per-resource worker queues — with this
// package executing the individual monotasks. The dataset API accepts either
// (Session.SetRunner), which is the sim-vs-live seam of the examples.
type Runner interface {
	RunPlan(plan *dag.Plan, inputs []PlanInput) (RowsFn, error)
}

// LocalRunner is the default Runner: direct execution on a bounded local
// goroutine pool, bypassing the scheduler.
type LocalRunner struct {
	// Workers bounds concurrent CPU monotasks; 0 means GOMAXPROCS.
	Workers int
	// Context, when non-nil, cancels in-flight runs.
	Context context.Context
}

// RunPlan implements Runner.
func (lr LocalRunner) RunPlan(plan *dag.Plan, inputs []PlanInput) (RowsFn, error) {
	rt := New(plan)
	if lr.Workers > 0 {
		rt.SetWorkers(lr.Workers)
	}
	for _, in := range inputs {
		rt.BindInput(in)
	}
	ctx := lr.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if err := rt.RunContext(ctx); err != nil {
		return nil, err
	}
	return rt.Rows, nil
}

// InputMTID is the producer ID of job-input contributions: inputs sort
// before every real monotask's output in a partition's canonical order.
const InputMTID = -1

// partition is an ordered contribution list, kept sorted by producer MTID.
// Keying partition contents by producer makes the store
// position-independent: every process (master, any agent) assembles a
// partition as the concatenation of its contributions sorted by MTID, so
// ordinal-sensitive reads (non-keyed shuffle bucketing, split-partition
// round-robin) see the same row order no matter which order contributions
// arrived in or over which transport.
type partition []contrib

// sortSearchMTID locates the insert position of mtID in p.
func sortSearchMTID(p partition, mtID int) int {
	return sort.Search(len(p), func(i int) bool { return p[i].mtID >= mtID })
}

// Runtime executes one plan over materialized inputs. A Runtime (like the
// plan it drives) is single-use. It is also the contribution store of the
// distributed data plane: agents insert fetched contributions before
// executing and serve their own produced contributions to peers, and the
// master checkpoints every completed monotask's contributions here (§4.3).
type Runtime struct {
	plan  *dag.Plan
	mu    sync.Mutex
	store map[*dag.Dataset][]partition
	byID  map[int]*dag.Dataset
	// committed records monotasks whose outputs were written, making Exec
	// at-most-once: a monotask re-executed after an abort (worker failure
	// retry, §4.3) cannot double-append its rows.
	committed map[*dag.Monotask]bool
	// inputs are the generated job inputs, each partition made on its first
	// read (makeInputs).
	inputs map[*dag.Dataset]*genInput
	// shards caches shuffle splits of partitions (shardsOf).
	shards  map[shardKey]*shardSplit
	workers int

	// Encode-once state (see blobstore.go). codec == nil keeps the runtime
	// rows-only — the pure-local path pays no serialization cost.
	codec     BlobCodec
	blobBytes int64
	spill     spillState
}

// genInput is one generated job input of a runtime: its generator and which
// partitions have been made.
type genInput struct {
	gen  PartGen
	made []bool
}

// New builds a runtime for the plan. Input datasets must be bound with
// BindInput (or SetInput) before Run.
func New(plan *dag.Plan) *Runtime {
	byID := make(map[int]*dag.Dataset)
	for _, d := range plan.Graph.Datasets() {
		byID[d.ID] = d
	}
	return &Runtime{
		plan:      plan,
		store:     make(map[*dag.Dataset][]partition),
		byID:      byID,
		committed: make(map[*dag.Monotask]bool),
		workers:   runtime.NumCPU(),
	}
}

// Plan returns the plan this runtime executes.
func (r *Runtime) Plan() *dag.Plan { return r.plan }

// DatasetByID resolves a plan dataset by its graph ID — the cross-process
// dataset identity of the wire protocol (both sides build the plan from the
// same registered workload, so IDs agree by construction).
func (r *Runtime) DatasetByID(id int) *dag.Dataset { return r.byID[id] }

// SetWorkers overrides the CPU worker pool size (minimum 1).
func (r *Runtime) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	r.workers = n
}

// BindInput is the one way a job input enters a runtime. It records the
// input's partition sizes by SplitInput's rule. Materialized rows are split
// into their partitions at once, each one contribution of InputMTID. A
// generated input is only registered: partition p is made by in.Gen the first
// time a monotask (or a result read or a serve) reads it, by the reader and
// outside r.mu, and inserted as the InputMTID contribution. Two readers that
// race to make one partition both generate it, and the duplicate insert
// drops the second. Call it before the runtime executes.
func (r *Runtime) BindInput(in PlanInput) {
	if in.Gen == nil {
		for p, part := range SplitInput(in.Dataset, in.Rows) {
			r.InsertContribution(in.Dataset, p, InputMTID, part)
		}
		return
	}
	d := in.Dataset
	recordInputSizes(d, in.N)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.inputs == nil {
		r.inputs = make(map[*dag.Dataset]*genInput)
	}
	r.inputs[d] = &genInput{gen: in.Gen, made: make([]bool, d.Partitions)}
}

// SetInput binds materialized rows to a job-input dataset (BindInput).
func (r *Runtime) SetInput(d *dag.Dataset, rows []Row) {
	r.BindInput(PlanInput{Dataset: d, Rows: rows})
}

// makeInputs makes every partition in [lo, hi) of d that is a generated
// input's and not yet made. The generator runs outside r.mu, so it is
// charged to the reader and blocks no other access to the store.
func (r *Runtime) makeInputs(d *dag.Dataset, lo, hi int) {
	r.mu.Lock()
	in := r.inputs[d]
	r.mu.Unlock()
	if in == nil {
		return
	}
	for p := max(lo, 0); p < min(hi, len(in.made)); p++ {
		r.mu.Lock()
		made := in.made[p]
		r.mu.Unlock()
		if made {
			continue
		}
		rows := in.gen(p, d.Partitions)
		r.mu.Lock()
		in.made[p] = true
		if len(rows) > 0 {
			r.insertContribLocked(d, p, contrib{mtID: InputMTID, rows: rows})
		}
		r.mu.Unlock()
	}
}

// SplitInput is the one split rule of job inputs: it deals rows round-robin
// over d's partitions, each sized before it is filled, and records the
// partition sizes (row counts) in the plan's metadata store so usage
// estimation works unchanged. Every process that seeds an input splits it
// here, or generates its partitions by the same rule (PartGen), so partition
// contents agree across processes.
func SplitInput(d *dag.Dataset, rows []Row) [][]Row {
	sizes := recordInputSizes(d, len(rows))
	parts := make([][]Row, d.Partitions)
	for p := range parts {
		if sizes[p] > 0 {
			parts[p] = make([]Row, 0, int(sizes[p]))
		}
	}
	for i, row := range rows {
		parts[i%d.Partitions] = append(parts[i%d.Partitions], row)
	}
	return parts
}

// PartLen is the row count of partition part when n rows are dealt
// round-robin over parts partitions: the size every split and every
// generator of a job input agrees on.
func PartLen(n, part, parts int) int {
	return max(0, (n-part+parts-1)/parts)
}

// recordInputSizes records, and returns, the partition sizes (row counts) of
// a job input of n rows dealt round-robin over d's partitions.
func recordInputSizes(d *dag.Dataset, n int) []float64 {
	sizes := make([]float64, d.Partitions)
	for p := range sizes {
		sizes[p] = float64(PartLen(n, p, d.Partitions))
	}
	d.SetInput(sizes)
	return sizes
}

// Rows returns the materialized rows of a dataset after Run, concatenated
// over partitions in canonical contribution order. It panics on a storage
// error (spill read or decode failure) — pure-local runs cannot hit those;
// paths that can must use RowsErr.
func (r *Runtime) Rows(d *dag.Dataset) []Row {
	rows, err := r.RowsErr(d)
	if err != nil {
		panic(fmt.Sprintf("localrt: Rows(%d): %v", d.ID, err))
	}
	return rows
}

// RowsErr is Rows with storage errors surfaced instead of panicking.
func (r *Runtime) RowsErr(d *dag.Dataset) ([]Row, error) {
	r.makeInputs(d, 0, d.Partitions)
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Row
	for pi := range r.store[d] {
		p := r.store[d][pi]
		for i := range p {
			rows, err := r.rowsOfLocked(&p[i])
			if err != nil {
				return nil, err
			}
			out = append(out, rows...)
		}
	}
	return out, nil
}

// Partitions returns the assembled partitions of a dataset after Run. Like
// Rows it panics on storage errors.
func (r *Runtime) Partitions(d *dag.Dataset) [][]Row {
	r.makeInputs(d, 0, d.Partitions)
	r.mu.Lock()
	defer r.mu.Unlock()
	parts := r.store[d]
	out := make([][]Row, len(parts))
	for i := range parts {
		p := parts[i]
		for j := range p {
			rows, err := r.rowsOfLocked(&p[j])
			if err != nil {
				panic(fmt.Sprintf("localrt: Partitions(%d): %v", d.ID, err))
			}
			out[i] = append(out[i], rows...)
		}
	}
	return out
}

// InsertContribution records one producer's decoded contribution to a
// dataset partition. Inserts are idempotent per (dataset, part, producer):
// fetching the same contribution from two holders (a peer and the master's
// checkpoint) cannot duplicate rows. Safe for concurrent use.
func (r *Runtime) InsertContribution(d *dag.Dataset, part, mtID int, rows []Row) {
	if len(rows) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.insertContribLocked(d, part, contrib{mtID: mtID, rows: rows})
}

// insertContribLocked performs the sorted, deduplicated insert. Callers
// hold r.mu. A newly cached blob is charged against the memory budget.
func (r *Runtime) insertContribLocked(d *dag.Dataset, part int, c contrib) {
	parts, ok := r.store[d]
	if !ok {
		parts = make([]partition, d.Partitions)
		r.store[d] = parts
	}
	p := parts[part]
	i := sortSearchMTID(p, c.mtID)
	if i < len(p) && p[i].mtID == c.mtID {
		return // duplicate delivery of the same producer's output
	}
	p = append(p, contrib{})
	copy(p[i+1:], p[i:])
	p[i] = c
	parts[part] = p
	if c.blob != nil {
		r.accountBlobLocked(d, part, &parts[part][i])
	}
}

// Run executes the plan to completion. See RunContext.
func (r *Runtime) Run() error { return r.RunContext(context.Background()) }

// RunContext executes the plan to completion or until ctx is cancelled. CPU
// monotasks run on a bounded worker pool; network and disk monotasks are
// in-memory moves. The coordinator (this goroutine) owns all plan state.
// On error or cancellation every launched goroutine is drained before
// returning, so an aborted run leaks nothing.
func (r *Runtime) RunContext(ctx context.Context) error {
	type completion struct {
		mt  *dag.Monotask
		err error
	}
	results := make(chan completion)
	inflight := 0
	sem := make(chan struct{}, r.workers)

	launch := func(mt *dag.Monotask) {
		r.plan.Prepare(mt)
		inflight++
		if mt.Kind == resource.CPU {
			go func() {
				select {
				case sem <- struct{}{}:
				case <-ctx.Done():
					results <- completion{mt, ctx.Err()}
					return
				}
				err := r.Exec(mt)
				<-sem
				results <- completion{mt, err}
			}()
			return
		}
		// Network/disk data movement is memory-speed locally; execute
		// inline but report through the same channel for uniform flow.
		go func() {
			results <- completion{mt, r.Exec(mt)}
		}()
	}

	var runnable []*dag.Monotask
	for _, t := range r.plan.InitialReady() {
		runnable = append(runnable, t.ReadyMonotasks()...)
	}
	for {
		if err := ctx.Err(); err != nil {
			// Cancelled: stop launching, drain in-flight work.
			for inflight > 0 {
				<-results
				inflight--
			}
			return err
		}
		for _, mt := range runnable {
			launch(mt)
		}
		runnable = runnable[:0]
		if inflight == 0 {
			break
		}
		c := <-results
		inflight--
		if c.err != nil {
			// Drain stragglers before reporting.
			for inflight > 0 {
				<-results
				inflight--
			}
			return c.err
		}
		res := r.plan.Complete(c.mt)
		runnable = append(runnable, res.NewReadyMonotasks...)
		for _, t := range res.NewReadyTasks {
			runnable = append(runnable, t.ReadyMonotasks()...)
		}
	}
	if !r.plan.AllDone() {
		return fmt.Errorf("localrt: plan stalled with incomplete tasks")
	}
	return nil
}

// Exec materializes one monotask's outputs: it gathers the monotask's input
// rows from the store, runs its execution steps (CPU UDF invocation,
// hash-bucketed shuffle transfer, broadcast replication, disk spill) and
// writes the produced rows back. It is safe to call from multiple
// goroutines; dependency ordering (never executing a monotask before its
// producers' rows are written) is the caller's responsibility — Prepare and
// Complete bookkeeping stays with the coordinating control plane. This is
// the per-monotask entry point the live scheduler's executor drives.
func (r *Runtime) Exec(mt *dag.Monotask) error {
	_, err := r.ExecRecord(mt)
	return err
}

// RecordedWrite is one partition contribution produced by an execution —
// what a worker agent ships back to the master inside a completion so the
// master can checkpoint it (§4.3) and redirect future readers.
type RecordedWrite struct {
	Dataset *dag.Dataset
	Part    int
	Rows    []Row
}

// ExecRecord is Exec, additionally returning the per-partition
// contributions the monotask produced — under a codec, only those that leave
// its task: a chain-internal dataset (dag.Plan.ChainInternal) is not
// committed at all, and a task-internal one (dag.Plan.TaskInternal) is
// committed as rows only, for the task's later monotasks on this process. The
// local commit is at-most-once (idempotent per producer), but the writes are
// returned on every successful call so a re-executed monotask can still
// report its outputs upstream.
func (r *Runtime) ExecRecord(mt *dag.Monotask) (writes []RecordedWrite, err error) {
	defer func() {
		if p := recover(); p != nil {
			writes, err = nil, fmt.Errorf("localrt: %v panicked: %v", mt, p)
		}
	}()
	r.mu.Lock()
	codec := r.codec
	r.mu.Unlock()
	steps := r.plan.ExecSteps(mt)
	outputs := make([][]Row, len(steps))
	var local []RecordedWrite // task-internal: committed as rows, not returned
	for si, step := range steps {
		inputs := make([][]Row, len(step.Reads))
		for ri, ref := range step.Reads {
			if ref.Dataset == nil {
				inputs[ri] = outputs[ref.Step]
				continue
			}
			in, err := r.gather(ref, mt)
			if err != nil {
				return nil, err
			}
			inputs[ri] = in
		}
		var rows []Row
		switch udf := step.UDF.(type) {
		case nil:
			for _, in := range inputs {
				rows = append(rows, in...)
			}
		case UDF:
			rows = udf(inputs)
		case func(inputs [][]Row) []Row:
			rows = udf(inputs)
		default:
			return nil, fmt.Errorf("localrt: %v has unsupported UDF type %T", mt, step.UDF)
		}
		outputs[si] = rows
		for _, d := range step.Creates {
			// A runtime with a codec moves contributions between processes,
			// and a chain-internal dataset never leaves this monotask: the
			// later step reads it from outputs above, so it is neither
			// committed, encoded nor shipped. A rows-only runtime keeps it,
			// because its callers may read any dataset after the run.
			if codec != nil && r.plan.ChainInternal(d) {
				continue
			}
			if codec != nil && r.plan.TaskInternal(d) {
				local = append(local, splitWrite(d, mt, rows)...)
				continue
			}
			writes = append(writes, splitWrite(d, mt, rows)...)
		}
	}
	// Encode-once: with a codec installed, the produced contributions are
	// serialized here — at produce time, outside the store lock — and the
	// bytes committed alongside the rows. Every later serve of these
	// contributions (shuffle fetch, TaskDone shipping, master checkpoint) is
	// a byte copy of this one encoding.
	var encs []contrib
	if codec != nil {
		encs = make([]contrib, len(writes))
		for i, w := range writes {
			blob, flags, rawLen, err := encodeWith(codec, w.Rows)
			if err != nil {
				return nil, err
			}
			encs[i] = contrib{mtID: mt.ID, rows: w.Rows, blob: blob, flags: flags, rawLen: rawLen}
		}
	}
	// Commit all outputs atomically and at most once: internal steps read
	// only the in-memory outputs slice, so deferring store writes to the
	// end changes nothing for a healthy run, and a monotask re-executed
	// after an abort cannot leave partial or duplicate rows behind.
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.committed[mt] {
		r.committed[mt] = true
		for i, w := range writes {
			c := contrib{mtID: mt.ID, rows: w.Rows}
			if encs != nil {
				c = encs[i]
			}
			r.insertContribLocked(w.Dataset, w.Part, c)
		}
		for _, w := range local {
			r.insertContribLocked(w.Dataset, w.Part, contrib{mtID: mt.ID, rows: w.Rows})
		}
	}
	return writes, nil
}

// gather collects a monotask's input rows from a dataset under its mapping.
// Partitions are read in canonical contribution order, so ordinals are
// identical on every process holding the same contributions. Contributions
// held only as blobs (fetched from peers, or spilled) are decoded here — the
// single decode site of the data plane.
func (r *Runtime) gather(ref dag.ReadRef, mt *dag.Monotask) ([]Row, error) {
	d, paral := ref.Dataset, mt.Parallelism()
	lo, hi := readRange(ref, mt)
	var crs []partContrib
	if ref.Mapping != dag.MapShard {
		var err error
		if crs, err = r.partRows(d, lo, hi); err != nil {
			return nil, err
		}
	}
	var out []Row
	switch {
	case ref.Mapping == dag.MapShard:
		// Pull-based shuffle: take this index's bucket of every partition.
		shards := make([][]Row, 0, hi-lo)
		n := 0
		for part := lo; part < hi; part++ {
			buckets, err := r.shardsOf(d, part, paral)
			if err != nil {
				return nil, err
			}
			if buckets != nil {
				shards = append(shards, buckets[mt.Index])
				n += len(buckets[mt.Index])
			}
		}
		if n > 0 {
			out = make([]Row, 0, n)
		}
		for _, rows := range shards {
			out = append(out, rows...)
		}
	case ref.Mapping == dag.MapPartition && d.Partitions < paral:
		// Several monotasks split one partition: deal its rows round-robin
		// among them so no row is duplicated.
		first := (lo*paral + d.Partitions - 1) / d.Partitions
		next := ((lo+1)*paral + d.Partitions - 1) / d.Partitions
		consumers, pos := next-first, mt.Index-first
		k := 0
		for _, c := range crs {
			for _, row := range c.rows {
				if k%consumers == pos {
					out = append(out, row)
				}
				k++
			}
		}
	default:
		n := 0
		for _, c := range crs {
			n += len(c.rows)
		}
		if n > 0 {
			out = make([]Row, 0, n)
		}
		for _, c := range crs {
			out = append(out, c.rows...)
		}
	}
	return out, nil
}

// shardSplit is one partition's rows dealt into the buckets of a shuffle
// read (bucketOf), computed from its first n contributions by the first
// reader; the others wait on done and share it.
type shardSplit struct {
	n       int
	done    chan struct{}
	buckets [][]Row
	err     error
}

type shardKey struct {
	d           *dag.Dataset
	part, paral int
}

// shardsOf returns partition part of d dealt into paral shuffle buckets.
// Every reader of a shuffle reads one bucket of every partition, so the
// partition is decoded and its rows hashed once per process, not once per
// reader. A split is recomputed if the partition has gained contributions
// since (a retried producer's); a store with a spill budget keeps no split,
// so its memory stays within the budget.
func (r *Runtime) shardsOf(d *dag.Dataset, part, paral int) ([][]Row, error) {
	r.makeInputs(d, part, part+1)
	r.mu.Lock()
	n := 0
	if parts := r.store[d]; part < len(parts) {
		n = len(parts[part])
	}
	if n == 0 {
		r.mu.Unlock()
		return nil, nil
	}
	key := shardKey{d, part, paral}
	s := r.shards[key]
	if s != nil && s.n == n {
		r.mu.Unlock()
		<-s.done
		return s.buckets, s.err
	}
	s = &shardSplit{n: n, done: make(chan struct{})}
	if r.spill.budget <= 0 {
		if r.shards == nil {
			r.shards = make(map[shardKey]*shardSplit)
		}
		r.shards[key] = s
	}
	r.mu.Unlock()
	defer close(s.done)
	crs, err := r.partRows(d, part, part+1)
	if err != nil {
		s.err = err
		return nil, err
	}
	// Two passes, so each bucket is allocated once at its size.
	n = 0
	for _, c := range crs {
		n += len(c.rows)
	}
	of := make([]int32, n)
	sizes := make([]int, paral)
	k := 0
	for _, c := range crs {
		for _, row := range c.rows {
			b := bucketOf(row, part, k, paral)
			of[k] = int32(b)
			sizes[b]++
			k++
		}
	}
	s.buckets = make([][]Row, paral)
	for b, size := range sizes {
		s.buckets[b] = make([]Row, 0, size)
	}
	k = 0
	for _, c := range crs {
		for _, row := range c.rows {
			s.buckets[of[k]] = append(s.buckets[of[k]], row)
			k++
		}
	}
	return s.buckets, nil
}

// readRange is the one rule for which partitions of a dataset a monotask's
// read touches, shared by gather (what it reads) and InputParts (what a
// remote dispatch must fetch): broadcast and shuffle reads span every
// partition, a partition-aligned read its index range — or, when several
// monotasks split one partition, that partition.
func readRange(ref dag.ReadRef, mt *dag.Monotask) (lo, hi int) {
	if ref.Mapping == dag.MapPartition {
		return dag.PartRange(ref.Dataset, mt.Parallelism(), mt.Index)
	}
	return 0, ref.Dataset.Partitions
}

// splitWrite splits a monotask's produced rows into per-partition
// contributions of the created dataset. Empty contributions are dropped —
// they carry no rows and would only widen completions on the wire.
func splitWrite(d *dag.Dataset, mt *dag.Monotask, rows []Row) []RecordedWrite {
	paral := mt.Parallelism()
	switch {
	case d.Partitions == paral:
		if len(rows) == 0 {
			return nil
		}
		return []RecordedWrite{{Dataset: d, Part: mt.Index, Rows: rows}}
	case d.Partitions < paral:
		if len(rows) == 0 {
			return nil
		}
		idx := mt.Index * d.Partitions / paral
		return []RecordedWrite{{Dataset: d, Part: idx, Rows: rows}}
	default:
		// Spread rows over this monotask's partition range round-robin.
		lo, hi := dag.PartRange(d, paral, mt.Index)
		n := hi - lo
		buckets := make([][]Row, n)
		for i, row := range rows {
			buckets[i%n] = append(buckets[i%n], row)
		}
		var out []RecordedWrite
		for i, b := range buckets {
			if len(b) > 0 {
				out = append(out, RecordedWrite{Dataset: d, Part: lo + i, Rows: b})
			}
		}
		return out
	}
}

// DatasetPart addresses one partition of a plan dataset.
type DatasetPart struct {
	Dataset *dag.Dataset
	Part    int
}

// InputParts lists the dataset partitions a monotask reads — readRange of
// each dataset read, which is what gather reads. The master uses this to
// build fetch specs for remote dispatches; internal step reads resolve
// in-memory and are excluded.
func InputParts(plan *dag.Plan, mt *dag.Monotask) []DatasetPart {
	var out []DatasetPart
	seen := make(map[DatasetPart]bool)
	add := func(d *dag.Dataset, part int) {
		dp := DatasetPart{Dataset: d, Part: part}
		if !seen[dp] {
			seen[dp] = true
			out = append(out, dp)
		}
	}
	for _, step := range plan.ExecSteps(mt) {
		for _, ref := range step.Reads {
			if ref.Dataset == nil {
				continue
			}
			lo, hi := readRange(ref, mt)
			for p := lo; p < hi; p++ {
				add(ref.Dataset, p)
			}
		}
	}
	return out
}

// bucketOf routes a row to a shuffle bucket. Keyed rows hash on their key —
// grouping semantics require all rows of a key to meet in one bucket. Rows
// that are not Keyed carry no grouping requirement, so they are dealt
// round-robin by (source partition, ordinal): a pure function of the row's
// position, never of its formatted value. Value-hashing non-keyed rows (the
// previous scheme) was non-deterministic for rows containing pointers, maps
// or other address-dependent formatting, which made live runs
// non-reproducible and incomparable across execution modes.
func bucketOf(row Row, part, ordinal, buckets int) int {
	if buckets <= 1 {
		return 0
	}
	if k, ok := row.(Keyed); ok {
		return int(k.ShuffleHash() % uint64(buckets))
	}
	return (part + ordinal) % buckets
}

// HashKey is FNV-1a over the key's %v formatting. This runs once per row per
// reducer, so the key kinds shuffles actually use are formatted without fmt
// and hashed inline; the result is the same either way. A key of a kind
// hashed inline is not boxed on the heap, so a Keyed row built on it routes
// without allocating.
func HashKey[K comparable](k K) uint64 {
	if h, ok := hashKnown(k); ok {
		return h
	}
	return hashFormatted(k)
}

func hashKnown(key any) (uint64, bool) {
	var buf [32]byte
	switch k := key.(type) {
	case string:
		return fnv1a(k), true
	case int:
		return fnv1a(strconv.AppendInt(buf[:0], int64(k), 10)), true
	case int64:
		return fnv1a(strconv.AppendInt(buf[:0], k, 10)), true
	case float64:
		return fnv1a(strconv.AppendFloat(buf[:0], k, 'g', -1, 64)), true
	}
	return 0, false
}

func hashFormatted(key any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", key)
	return h.Sum64()
}

func fnv1a[B string | []byte](b B) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * 1099511628211
	}
	return h
}
