package localrt

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ursa/internal/dag"
	"ursa/internal/resource"
)

// kv is a keyed row for shuffle tests.
type kv struct {
	K string
	V int
}

func (p kv) ShuffleHash() uint64 { return HashKey(p.K) }

// buildWordCount constructs the canonical map + shuffle + reduce graph over
// lines of text.
func buildWordCount(inParts, outParts int) (*dag.Graph, *dag.Dataset, *dag.Dataset) {
	g := dag.NewGraph()
	lines := g.CreateData(inParts)
	pairs := g.CreateData(inParts)
	shuffled := g.CreateData(outParts)
	counts := g.CreateData(outParts)

	tokenize := g.CreateOp(resource.CPU, "tokenize").Read(lines).Create(pairs)
	tokenize.SetUDF(UDF(func(in [][]Row) []Row {
		agg := map[string]int{}
		for _, row := range in[0] {
			for _, w := range strings.Fields(row.(string)) {
				agg[w]++
			}
		}
		var out []Row
		for w, c := range agg {
			out = append(out, kv{w, c})
		}
		return out
	}))
	shuffle := g.CreateOp(resource.Net, "shuffle").Read(pairs).Create(shuffled)
	reduce := g.CreateOp(resource.CPU, "reduce").Read(shuffled).Create(counts)
	reduce.SetUDF(UDF(func(in [][]Row) []Row {
		agg := map[string]int{}
		for _, row := range in[0] {
			p := row.(kv)
			agg[p.K] += p.V
		}
		var out []Row
		for w, c := range agg {
			out = append(out, kv{w, c})
		}
		return out
	}))
	tokenize.To(shuffle, dag.Sync)
	shuffle.To(reduce, dag.Async)
	return g, lines, counts
}

func TestWordCount(t *testing.T) {
	g, lines, counts := buildWordCount(4, 3)
	plan := g.MustBuild()
	rt := New(plan)
	rt.SetInput(lines, []Row{
		"the quick brown fox",
		"the lazy dog",
		"the quick dog",
		"fox and dog and fox",
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, row := range rt.Rows(counts) {
		p := row.(kv)
		if _, dup := got[p.K]; dup {
			t.Errorf("word %q appears in two output partitions", p.K)
		}
		got[p.K] = p.V
	}
	want := map[string]int{"the": 3, "quick": 2, "brown": 1, "fox": 3,
		"lazy": 1, "dog": 3, "and": 2}
	for w, c := range want {
		if got[w] != c {
			t.Errorf("count[%q] = %d, want %d", w, got[w], c)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d distinct words, want %d", len(got), len(want))
	}
}

func TestCollapsedChainRunsAllUDFs(t *testing.T) {
	g := dag.NewGraph()
	in := g.CreateData(3)
	mid := g.CreateData(3)
	out := g.CreateData(3)
	double := g.CreateOp(resource.CPU, "double").Read(in).Create(mid)
	double.SetUDF(UDF(func(ins [][]Row) []Row {
		var rows []Row
		for _, r := range ins[0] {
			rows = append(rows, r.(int)*2)
		}
		return rows
	}))
	inc := g.CreateOp(resource.CPU, "inc").Read(mid).Create(out)
	inc.SetUDF(UDF(func(ins [][]Row) []Row {
		var rows []Row
		for _, r := range ins[0] {
			rows = append(rows, r.(int)+1)
		}
		return rows
	}))
	double.To(inc, dag.Async)
	plan := g.MustBuild()
	if len(plan.Tasks) != 3 {
		t.Fatalf("tasks = %d, want 3 (chain collapsed)", len(plan.Tasks))
	}
	rt := New(plan)
	rt.SetInput(in, []Row{1, 2, 3, 4, 5, 6})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, r := range rt.Rows(out) {
		got = append(got, r.(int))
	}
	sort.Ints(got)
	want := []int{3, 5, 7, 9, 11, 13}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestBroadcastJoin(t *testing.T) {
	g := dag.NewGraph()
	facts := g.CreateData(4)
	dims := g.CreateData(1)
	dimCopy := g.CreateData(4)
	joined := g.CreateData(4)

	bc := g.CreateOp(resource.Net, "bcast").Read(dims).Create(dimCopy)
	bc.Broadcast = true
	bc.Parallelism = 4
	join := g.CreateOp(resource.CPU, "join").Read(facts).Read(dimCopy).Create(joined)
	join.SetUDF(UDF(func(ins [][]Row) []Row {
		names := map[int]string{}
		for _, r := range ins[1] {
			p := r.(kv)
			names[p.V] = p.K
		}
		var out []Row
		for _, r := range ins[0] {
			id := r.(int)
			if name, ok := names[id]; ok {
				out = append(out, name)
			}
		}
		return out
	}))
	bc.To(join, dag.Async)
	plan := g.MustBuild()
	rt := New(plan)
	rt.SetInput(facts, []Row{1, 2, 3, 2, 1})
	rt.SetInput(dims, []Row{kv{"one", 1}, kv{"two", 2}, kv{"three", 3}})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	rows := rt.Rows(joined)
	if len(rows) != 5 {
		t.Fatalf("joined rows = %d, want 5", len(rows))
	}
	counts := map[string]int{}
	for _, r := range rows {
		counts[r.(string)]++
	}
	if counts["one"] != 2 || counts["two"] != 2 || counts["three"] != 1 {
		t.Errorf("join result = %v", counts)
	}
}

func TestUnequalParallelismNoRowLossOrDup(t *testing.T) {
	for _, parts := range [][2]int{{6, 2}, {2, 6}, {5, 3}, {3, 5}} {
		g := dag.NewGraph()
		in := g.CreateData(parts[0])
		out := g.CreateData(parts[1])
		op := g.CreateOp(resource.CPU, "copy").Read(in).Create(out)
		op.Parallelism = parts[1]
		plan := g.MustBuild()
		rt := New(plan)
		var rows []Row
		for i := 0; i < 30; i++ {
			rows = append(rows, i)
		}
		rt.SetInput(in, rows)
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		seen := map[int]int{}
		for _, r := range rt.Rows(out) {
			seen[r.(int)]++
		}
		for i := 0; i < 30; i++ {
			if seen[i] != 1 {
				t.Errorf("parts %v: row %d seen %d times", parts, i, seen[i])
			}
		}
	}
}

func TestUDFPanicBecomesError(t *testing.T) {
	g := dag.NewGraph()
	in := g.CreateData(2)
	out := g.CreateData(2)
	op := g.CreateOp(resource.CPU, "boom").Read(in).Create(out)
	op.SetUDF(UDF(func([][]Row) []Row { panic("kaboom") }))
	plan := g.MustBuild()
	rt := New(plan)
	rt.SetInput(in, []Row{1, 2, 3})
	err := rt.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic surfaced", err)
	}
}

// TestPropertyShuffleRouting: every keyed row lands in exactly one bucket,
// and identical keys land together.
func TestPropertyShuffleRouting(t *testing.T) {
	f := func(keys []string, buckets uint8) bool {
		b := int(buckets%16) + 1
		byKey := map[string]int{}
		for i, k := range keys {
			// Keyed routing must ignore position: vary part/ordinal.
			got := bucketOf(kv{k, 1}, i%3, i, b)
			if got < 0 || got >= b {
				return false
			}
			if prev, ok := byKey[k]; ok && prev != got {
				return false
			}
			byKey[k] = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestHashKeyFastPathMatchesFmt pins the inlined hashing of the common key
// kinds to what bucketOf always computed, FNV-1a over the key's %v text:
// a different bucket would silently regroup every shuffle.
func TestHashKeyFastPathMatchesFmt(t *testing.T) {
	viaFmt := func(key any) uint64 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%v", key)
		return h.Sum64()
	}
	keys := []any{
		"", "a", "emea", "héllo\x00wörld", strings.Repeat("k", 300),
		0, 1, -1, 42, math.MaxInt64, math.MinInt64,
		int64(0), int64(-7), int64(math.MaxInt64), int64(math.MinInt64),
		0.0, math.Copysign(0, -1), 1.0, 13.0, -2.5, 0.1, 1e6, 1e20, 1e21, 1e-5, 123456789.125,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		true, false,
		// No fast path: these keep the fmt path and must still agree.
		int32(5), uint(5), float32(2.5), [2]int{1, 2}, struct{ A, B string }{"x", "y"},
	}
	for _, key := range keys {
		if got, want := HashKey(key), viaFmt(key); got != want {
			t.Errorf("HashKey(%T %v) = %#x, fmt path %#x", key, key, got, want)
		}
		if got, want := bucketOf(anyKeyed{key}, 0, 0, 7), int(viaFmt(key)%7); got != want {
			t.Errorf("bucketOf(%T %v) = %d, want %d", key, key, got, want)
		}
	}
}

type anyKeyed struct{ key any }

func (k anyKeyed) ShuffleHash() uint64 { return HashKey(k.key) }

// TestRunContextCancel: a cancelled run returns the context error and drains
// every launched goroutine before returning (no leaks on abort).
func TestRunContextCancel(t *testing.T) {
	g := dag.NewGraph()
	in := g.CreateData(4)
	out := g.CreateData(4)
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	op := g.CreateOp(resource.CPU, "slow").Read(in).Create(out)
	op.SetUDF(UDF(func(ins [][]Row) []Row {
		started <- struct{}{}
		<-release
		return ins[0]
	}))
	rt := New(g.MustBuild())
	rt.SetWorkers(2)
	rt.SetInput(in, []Row{1, 2, 3, 4, 5, 6, 7, 8})

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- rt.RunContext(ctx) }()
	<-started // at least one monotask is executing
	cancel()
	close(release) // let in-flight UDFs finish so the drain completes
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunContext did not return after cancel")
	}
}

// TestNonKeyedShuffleDeterministic: rows without ShuffleHash must land in the
// same output partitions on every run — positional routing, never value
// identity (pointers would otherwise scatter nondeterministically).
func TestNonKeyedShuffleDeterministic(t *testing.T) {
	type blob struct{ p *int } // pointer field: %v formatting is per-run
	run := func() [][]Row {
		g := dag.NewGraph()
		in := g.CreateData(4)
		mid := g.CreateData(4)
		out := g.CreateData(3)
		pre := g.CreateOp(resource.CPU, "pre").Read(in).Create(mid)
		shuffle := g.CreateOp(resource.Net, "shuffle").Read(mid).Create(out)
		pre.To(shuffle, dag.Sync)
		rt := New(g.MustBuild())
		var rows []Row
		for i := 0; i < 24; i++ {
			v := i
			rows = append(rows, blob{&v})
		}
		rt.SetInput(in, rows)
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		return rt.Partitions(out)
	}
	a, b := run(), run()
	for pi := range a {
		if len(a[pi]) != len(b[pi]) {
			t.Fatalf("partition %d: %d rows vs %d rows across runs",
				pi, len(a[pi]), len(b[pi]))
		}
		for k := range a[pi] {
			if *a[pi][k].(blob).p != *b[pi][k].(blob).p {
				t.Fatalf("partition %d row %d differs across runs", pi, k)
			}
		}
	}
}

// TestExecAtMostOnce: re-executing a monotask (the abort/retry path of §4.3)
// must not duplicate its output rows.
func TestExecAtMostOnce(t *testing.T) {
	g := dag.NewGraph()
	in := g.CreateData(2)
	out := g.CreateData(2)
	g.CreateOp(resource.CPU, "copy").Read(in).Create(out)
	plan := g.MustBuild()
	rt := New(plan)
	rt.SetInput(in, []Row{1, 2, 3, 4})

	var mts []*dag.Monotask
	for _, task := range plan.InitialReady() {
		mts = append(mts, task.ReadyMonotasks()...)
	}
	for _, mt := range mts {
		plan.Prepare(mt)
		if err := rt.Exec(mt); err != nil {
			t.Fatal(err)
		}
		if err := rt.Exec(mt); err != nil { // retry after a presumed abort
			t.Fatal(err)
		}
		plan.Complete(mt)
	}
	if got := len(rt.Rows(out)); got != 4 {
		t.Fatalf("rows after double-exec = %d, want 4", got)
	}
}

// wordCountShapes are the (input, output) partition counts the word-count
// tests run.
var wordCountShapes = [][2]int{{1, 1}, {2, 5}, {8, 3}, {5, 8}}

func wordCountInput() []Row {
	var input []Row
	for i := 0; i < 40; i++ {
		input = append(input, fmt.Sprintf("w%d w%d common", i%7, i%3))
	}
	return input
}

func TestWordCountManyShapes(t *testing.T) {
	for _, shape := range wordCountShapes {
		g, lines, counts := buildWordCount(shape[0], shape[1])
		plan := g.MustBuild()
		rt := New(plan)
		rt.SetInput(lines, wordCountInput())
		if err := rt.Run(); err != nil {
			t.Fatalf("shape %v: %v", shape, err)
		}
		total := 0
		for _, row := range rt.Rows(counts) {
			total += row.(kv).V
		}
		if total != 120 { // 3 words per line × 40 lines
			t.Errorf("shape %v: total word count = %d, want 120", shape, total)
		}
	}
}

// TestInputPartsCoverWhatGatherReads runs each monotask the way a remote
// agent does: on a fresh runtime holding only the partitions InputParts
// names, copied contribution by contribution from a store that collects
// every monotask's writes. The rows must equal direct execution's, over the
// word-count shapes and over copies whose parallelism splits or spans
// partitions.
func TestInputPartsCoverWhatGatherReads(t *testing.T) {
	type job struct {
		name  string
		build func() (*dag.Graph, *dag.Dataset, *dag.Dataset)
		input []Row
	}
	var jobs []job
	for _, shape := range wordCountShapes {
		jobs = append(jobs, job{fmt.Sprintf("wordcount %v", shape), func() (*dag.Graph, *dag.Dataset, *dag.Dataset) {
			return buildWordCount(shape[0], shape[1])
		}, wordCountInput()})
	}
	var ints []Row
	for i := 0; i < 30; i++ {
		ints = append(ints, i)
	}
	for _, parts := range [][2]int{{6, 2}, {2, 6}, {5, 3}, {3, 5}} {
		jobs = append(jobs, job{fmt.Sprintf("copy %v", parts), func() (*dag.Graph, *dag.Dataset, *dag.Dataset) {
			g := dag.NewGraph()
			in, out := g.CreateData(parts[0]), g.CreateData(parts[1])
			g.CreateOp(resource.CPU, "copy").Read(in).Create(out).Parallelism = parts[1]
			return g, in, out
		}, ints})
	}
	for _, j := range jobs {
		g, in, out := j.build()
		direct := New(g.MustBuild())
		direct.SetInput(in, j.input)
		if err := direct.Run(); err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}

		g, in, out2 := j.build()
		plan := g.MustBuild()
		canon := New(plan)
		canon.SetInput(in, j.input)
		var ready []*dag.Monotask
		for _, task := range plan.InitialReady() {
			ready = append(ready, task.ReadyMonotasks()...)
		}
		for len(ready) > 0 {
			mt := ready[0]
			ready = ready[1:]
			plan.Prepare(mt)
			w := New(plan)
			for _, dp := range InputParts(plan, mt) {
				if parts := canon.store[dp.Dataset]; parts != nil {
					for _, c := range parts[dp.Part] {
						w.InsertContribution(dp.Dataset, dp.Part, c.mtID, c.rows)
					}
				}
			}
			writes, err := w.ExecRecord(mt)
			if err != nil {
				t.Fatalf("%s: %v", j.name, err)
			}
			for _, wr := range writes {
				canon.InsertContribution(wr.Dataset, wr.Part, mt.ID, wr.Rows)
			}
			res := plan.Complete(mt)
			ready = append(ready, res.NewReadyMonotasks...)
			for _, task := range res.NewReadyTasks {
				ready = append(ready, task.ReadyMonotasks()...)
			}
		}
		if !plan.AllDone() {
			t.Fatalf("%s: plan stalled", j.name)
		}
		want, got := sortedRows(direct.Rows(out)), sortedRows(canon.Rows(out2))
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("%s: rows from InputParts' partitions diverge from direct execution:\ngot  %v\nwant %v",
				j.name, got, want)
		}
	}
}

func sortedRows(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}
