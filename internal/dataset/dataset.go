// Package dataset is Ursa's high-level API (§4.1.2): Spark-like typed
// dataset transformations (map, flatMap, mapPartitions, filter,
// reduceByKey, groupByKey, coGroup, join, broadcast) built on the OpGraph
// primitives, plus a Pregel-like vertex-centric interface. Graphs authored
// through this package run for real on the local runtime and can equally be
// submitted to the simulated cluster (the ops carry both UDFs and the cost
// model).
package dataset

import (
	"fmt"

	"ursa/internal/dag"
	"ursa/internal/localrt"
	"ursa/internal/resource"
)

// Session owns one operation graph under construction. Like the graphs it
// builds, a session is single-use: transformations define the graph, and
// the first Collect executes it.
type Session struct {
	g        *dag.Graph
	inputs   []inputBinding
	runner   localrt.Runner
	rows     localrt.RowsFn
	executed bool
}

type inputBinding struct {
	d    *dag.Dataset
	rows []localrt.Row
}

// NewSession returns an empty session.
func NewSession() *Session { return &Session{g: dag.NewGraph()} }

// SetRunner selects the execution back-end for Collect: by default plans run
// directly on a local goroutine pool (localrt.LocalRunner); installing the
// live runner (internal/live) instead routes the same plan through the full
// Ursa scheduler. Must be called before the first Collect.
func (s *Session) SetRunner(r localrt.Runner) { s.runner = r }

// Graph exposes the underlying operation graph, e.g. to submit the job to
// the simulated cluster instead of executing locally.
func (s *Session) Graph() *dag.Graph { return s.g }

// InputBindings returns the session's parallelized inputs as plan inputs —
// what a caller needs to run the session's graph through a scheduler
// directly (live.System.Submit, the remote workload builders) instead
// of via Collect.
func (s *Session) InputBindings() []localrt.PlanInput {
	out := make([]localrt.PlanInput, len(s.inputs))
	for i, in := range s.inputs {
		out[i] = localrt.PlanInput{Dataset: in.d, Rows: in.rows}
	}
	return out
}

// Dataset is a typed distributed dataset.
type Dataset[T any] struct {
	s  *Session
	d  *dag.Dataset
	op *dag.Op // creator op; nil for parallelized inputs
}

// Parts returns the dataset's partition count.
func (ds *Dataset[T]) Parts() int { return ds.d.Partitions }

// Dag exposes the underlying plan dataset — the identity a scheduler or
// runtime needs to address this dataset's materialized rows.
func (ds *Dataset[T]) Dag() *dag.Dataset { return ds.d }

// SetSelectivity records an optimizer estimate s (output rows per input
// row) on the producing op: it drives both the cost model's output sizing
// and the m2i = 1 + s memory request of §4.2.1.
func (ds *Dataset[T]) SetSelectivity(s float64) {
	if ds.op == nil || s <= 0 {
		return
	}
	if s > 1 {
		s = 1
	}
	ds.op.OutputRatio = s
	ds.op.M2I = 1 + s
}

// Parallelize distributes rows over parts partitions as a job input.
func Parallelize[T any](s *Session, rows []T, parts int) *Dataset[T] {
	if parts <= 0 {
		parts = 1
	}
	d := s.g.CreateData(parts)
	generic := make([]localrt.Row, len(rows))
	for i, r := range rows {
		generic[i] = r
	}
	s.inputs = append(s.inputs, inputBinding{d: d, rows: generic})
	return &Dataset[T]{s: s, d: d}
}

// cpuOp appends a CPU op reading from's dataset (plus any extra reads) into
// a fresh dataset of the given parallelism.
func cpuOp(s *Session, name string, parts int, udf localrt.UDF) (*dag.Op, *dag.Dataset) {
	out := s.g.CreateData(parts)
	op := s.g.CreateOp(resource.CPU, name).Create(out)
	op.SetUDF(udf)
	return op, out
}

// chain wires in → op with an async edge when in has a creator.
func chain[T any](in *Dataset[T], op *dag.Op) {
	op.Read(in.d)
	if in.op != nil {
		in.op.To(op, dag.Async)
	}
}

// typed converts a []localrt.Row input slice to []T.
func typed[T any](rows []localrt.Row) []T {
	out := make([]T, len(rows))
	for i, r := range rows {
		out[i] = r.(T)
	}
	return out
}

func untyped[T any](rows []T) []localrt.Row {
	out := make([]localrt.Row, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}

// MapPartitions applies f to each partition.
func MapPartitions[T, U any](in *Dataset[T], name string, f func([]T) []U) *Dataset[U] {
	op, out := cpuOp(in.s, name, in.d.Partitions, func(ins [][]localrt.Row) []localrt.Row {
		return untyped(f(typed[T](ins[0])))
	})
	chain(in, op)
	return &Dataset[U]{s: in.s, d: out, op: op}
}

// Map applies f to every row.
func Map[T, U any](in *Dataset[T], name string, f func(T) U) *Dataset[U] {
	return MapPartitions(in, name, func(rows []T) []U {
		out := make([]U, len(rows))
		for i, r := range rows {
			out[i] = f(r)
		}
		return out
	})
}

// FlatMap applies f to every row and concatenates the results.
func FlatMap[T, U any](in *Dataset[T], name string, f func(T) []U) *Dataset[U] {
	return MapPartitions(in, name, func(rows []T) []U {
		var out []U
		for _, r := range rows {
			out = append(out, f(r)...)
		}
		return out
	})
}

// Filter keeps rows satisfying pred. The op carries the paper's default
// m2i = 2 for filter (§4.2.1).
func Filter[T any](in *Dataset[T], name string, pred func(T) bool) *Dataset[T] {
	ds := MapPartitions(in, name, func(rows []T) []T {
		out := rows[:0:0]
		for _, r := range rows {
			if pred(r) {
				out = append(out, r)
			}
		}
		return out
	})
	ds.op.M2I = 2
	ds.op.OutputRatio = 0.5
	return ds
}

// Pair is a keyed row; its key routes it through shuffles.
type Pair[K comparable, V any] struct {
	Key K
	Val V
}

// ShuffleKey implements localrt.Keyed.
func (p Pair[K, V]) ShuffleKey() any { return p.Key }

// shuffleTo inserts the paper's reduceByKey wiring (§4.1.2): a CPU ser op
// (pre-aggregation via seed, or identity), a sync network shuffle, and
// returns the shuffled dataset plus the shuffle op for chaining.
// orderedAgg folds values per key while remembering first-seen key order,
// so aggregation UDFs emit rows deterministically. Map iteration order must
// never reach a dataset: the distributed mode requires a re-executed
// monotask to reproduce byte-identical output (its contribution may be
// re-fetched by peers or served from the master's checkpoint), and
// order-sensitive float folds downstream would otherwise drift.
type orderedAgg[K comparable, V any] struct {
	vals map[K]V
	keys []K
}

func newOrderedAgg[K comparable, V any]() *orderedAgg[K, V] {
	return &orderedAgg[K, V]{vals: make(map[K]V)}
}

func (a *orderedAgg[K, V]) fold(k K, v V, combine func(V, V) V) {
	if cur, ok := a.vals[k]; ok {
		a.vals[k] = combine(cur, v)
		return
	}
	a.vals[k] = v
	a.keys = append(a.keys, k)
}

// rows emits Pair[K,V] rows in first-seen key order.
func (a *orderedAgg[K, V]) rows() []localrt.Row {
	return a.rows2(func(k K, v V) localrt.Row { return Pair[K, V]{k, v} })
}

// rows2 emits rows in first-seen key order through an arbitrary constructor.
func (a *orderedAgg[K, V]) rows2(mk func(K, V) localrt.Row) []localrt.Row {
	out := make([]localrt.Row, 0, len(a.keys))
	for _, k := range a.keys {
		out = append(out, mk(k, a.vals[k]))
	}
	return out
}

func shuffleTo[K comparable, V any](in *Dataset[Pair[K, V]], name string, parts int,
	preCombine func(V, V) V) (*dag.Dataset, *dag.Op) {
	s := in.s
	ser, msg := cpuOp(s, name+"-ser", in.d.Partitions, func(ins [][]localrt.Row) []localrt.Row {
		if preCombine == nil {
			return ins[0]
		}
		agg := newOrderedAgg[K, V]()
		for _, r := range ins[0] {
			p := r.(Pair[K, V])
			agg.fold(p.Key, p.Val, preCombine)
		}
		return agg.rows()
	})
	if preCombine != nil {
		ser.OutputRatio = 0.6 // map-side combining shrinks the shuffle
	}
	chain(in, ser)
	shuffled := s.g.CreateData(parts)
	sh := s.g.CreateOp(resource.Net, name+"-shuffle").Read(msg).Create(shuffled)
	ser.To(sh, dag.Sync)
	return shuffled, sh
}

// ReduceByKey combines values per key into parts output partitions,
// following the paper's ser → shuffle → deser construction.
func ReduceByKey[K comparable, V any](in *Dataset[Pair[K, V]], name string, parts int,
	combine func(V, V) V) *Dataset[Pair[K, V]] {
	shuffled, sh := shuffleTo(in, name, parts, combine)
	deser, out := cpuOp(in.s, name+"-reduce", parts, func(ins [][]localrt.Row) []localrt.Row {
		agg := newOrderedAgg[K, V]()
		for _, r := range ins[0] {
			p := r.(Pair[K, V])
			agg.fold(p.Key, p.Val, combine)
		}
		return agg.rows()
	})
	deser.Read(shuffled)
	sh.To(deser, dag.Async)
	return &Dataset[Pair[K, V]]{s: in.s, d: out, op: deser}
}

// GroupByKey gathers all values per key.
func GroupByKey[K comparable, V any](in *Dataset[Pair[K, V]], name string, parts int) *Dataset[Pair[K, []V]] {
	shuffled, sh := shuffleTo(in, name, parts, nil)
	deser, out := cpuOp(in.s, name+"-group", parts, func(ins [][]localrt.Row) []localrt.Row {
		agg := newOrderedAgg[K, []V]()
		appendV := func(cur, more []V) []V { return append(cur, more...) }
		for _, r := range ins[0] {
			p := r.(Pair[K, V])
			agg.fold(p.Key, []V{p.Val}, appendV)
		}
		return agg.rows2(func(k K, vs []V) localrt.Row { return Pair[K, []V]{k, vs} })
	})
	deser.Read(shuffled)
	sh.To(deser, dag.Async)
	return &Dataset[Pair[K, []V]]{s: in.s, d: out, op: deser}
}

// CoGrouped holds, for one key, all left and right values.
type CoGrouped[K comparable, A, B any] struct {
	Key   K
	Left  []A
	Right []B
}

// CoGroup co-partitions two keyed datasets and groups both sides per key
// (full outer semantics).
func CoGroup[K comparable, A, B any](left *Dataset[Pair[K, A]], right *Dataset[Pair[K, B]],
	name string, parts int) *Dataset[CoGrouped[K, A, B]] {
	if left.s != right.s {
		panic("dataset: CoGroup across sessions")
	}
	s := left.s
	shL, opL := shuffleTo(left, name+"-l", parts, nil)
	shR, opR := shuffleTo(right, name+"-r", parts, nil)
	merge, out := cpuOp(s, name+"-cogroup", parts, func(ins [][]localrt.Row) []localrt.Row {
		la := map[K][]A{}
		rb := map[K][]B{}
		var lKeys, rKeys []K
		for _, r := range ins[0] {
			p := r.(Pair[K, A])
			if _, seen := la[p.Key]; !seen {
				lKeys = append(lKeys, p.Key)
			}
			la[p.Key] = append(la[p.Key], p.Val)
		}
		for _, r := range ins[1] {
			p := r.(Pair[K, B])
			if _, seen := rb[p.Key]; !seen {
				rKeys = append(rKeys, p.Key)
			}
			rb[p.Key] = append(rb[p.Key], p.Val)
		}
		// Emit in first-seen order (left side first, then right-only keys)
		// so re-executions reproduce byte-identical output.
		var res []localrt.Row
		for _, k := range lKeys {
			res = append(res, CoGrouped[K, A, B]{k, la[k], rb[k]})
			delete(rb, k)
		}
		for _, k := range rKeys {
			if bs, ok := rb[k]; ok {
				res = append(res, CoGrouped[K, A, B]{Key: k, Right: bs})
			}
		}
		return res
	})
	merge.Read(shL)
	merge.Read(shR)
	opL.To(merge, dag.Async)
	opR.To(merge, dag.Async)
	// Join cost model: output ≈ matches; selectivity feeds m2i = 1+s
	// (§4.2.1).
	merge.M2I = 1.5
	return &Dataset[CoGrouped[K, A, B]]{s: s, d: out, op: merge}
}

// Join inner-joins two keyed datasets.
func Join[K comparable, A, B any](left *Dataset[Pair[K, A]], right *Dataset[Pair[K, B]],
	name string, parts int) *Dataset[Pair[K, JoinRow[A, B]]] {
	cg := CoGroup(left, right, name, parts)
	return FlatMap(cg, name+"-join", func(g CoGrouped[K, A, B]) []Pair[K, JoinRow[A, B]] {
		if len(g.Left) == 0 || len(g.Right) == 0 {
			return nil
		}
		out := make([]Pair[K, JoinRow[A, B]], 0, len(g.Left)*len(g.Right))
		for _, a := range g.Left {
			for _, b := range g.Right {
				out = append(out, Pair[K, JoinRow[A, B]]{g.Key, JoinRow[A, B]{a, b}})
			}
		}
		return out
	})
}

// JoinRow is one matched pair of a join.
type JoinRow[A, B any] struct {
	Left  A
	Right B
}

// WithBroadcast replicates a small dataset to every partition of big and
// applies f(partitionRows, smallRows) — the broadcast-join pattern.
func WithBroadcast[T, S, U any](big *Dataset[T], small *Dataset[S], name string,
	f func(part []T, small []S) []U) *Dataset[U] {
	if big.s != small.s {
		panic("dataset: WithBroadcast across sessions")
	}
	s := big.s
	copies := s.g.CreateData(big.d.Partitions)
	bc := s.g.CreateOp(resource.Net, name+"-bcast").Read(small.d).Create(copies)
	bc.Broadcast = true
	bc.Parallelism = big.d.Partitions
	if small.op != nil {
		small.op.To(bc, dag.Sync)
	}
	op, out := cpuOp(s, name, big.d.Partitions, func(ins [][]localrt.Row) []localrt.Row {
		return untyped(f(typed[T](ins[0]), typed[S](ins[1])))
	})
	chain(big, op)
	op.Read(copies)
	bc.To(op, dag.Async)
	return &Dataset[U]{s: s, d: out, op: op}
}

// Collect executes the session (on first call) and returns the dataset's
// rows.
func Collect[T any](ds *Dataset[T]) ([]T, error) {
	s := ds.s
	if !s.executed {
		plan, err := s.g.Build()
		if err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
		inputs := make([]localrt.PlanInput, len(s.inputs))
		for i, in := range s.inputs {
			inputs[i] = localrt.PlanInput{Dataset: in.d, Rows: in.rows}
		}
		runner := s.runner
		if runner == nil {
			runner = localrt.LocalRunner{}
		}
		rows, err := runner.RunPlan(plan, inputs)
		if err != nil {
			return nil, err
		}
		s.rows = rows
		s.executed = true
	}
	return typed[T](s.rows(ds.d)), nil
}

// MustCollect is Collect that panics on error.
func MustCollect[T any](ds *Dataset[T]) []T {
	rows, err := Collect(ds)
	if err != nil {
		panic(err)
	}
	return rows
}
