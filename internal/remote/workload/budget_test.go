package workload

import (
	"runtime"
	"testing"

	"ursa/internal/localrt"
)

// TestCommittedBytesBudget counts the encoded bytes a codec runtime commits
// running shuffle-sql's job (sql_analytics query 1 over 20 000 rows). On an
// agent those are the contributions that leave their task, each also shipped
// to the master's checkpoint (584 350 bytes). It counts work, not time, so it
// repeats to the byte. The chain-internal intermediates are not committed and
// the task-internal ones (the network monotasks' outputs) not encoded; they
// would add about 3.4 MB and 0.58 MB.
func TestCommittedBytesBudget(t *testing.T) {
	const budget = 1_200_000
	name, params := SQLAnalytics(SQLParams{QueryIndex: 1, SalesRows: 20000})
	bj, err := Build(name, params)
	if err != nil {
		t.Fatal(err)
	}
	rt := localrt.New(bj.Plan)
	rt.SetCodec(Codec{})
	for _, in := range bj.Inputs {
		rt.SetInput(in.Dataset, in.Rows)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got := rt.BlobBytes(); got > budget {
		t.Errorf("committed %d encoded bytes, budget %d (+%d)", got, budget, got-budget)
	}
}

// runQ1 describes and runs shuffle-sql's job (sql_analytics query 1 over
// 20 000 rows) the way an agent does, every input partition made by the
// monotask that reads it and every contribution that leaves its task encoded,
// on one worker.
func runQ1(tb testing.TB) {
	name, params := SQLAnalytics(SQLParams{QueryIndex: 1, SalesRows: 20000})
	bj, err := Describe(name, params)
	if err != nil {
		tb.Fatal(err)
	}
	rt := localrt.New(bj.Plan)
	rt.SetCodec(Codec{})
	rt.SetWorkers(1)
	for _, in := range bj.Inputs {
		rt.BindInput(in)
	}
	if err := rt.Run(); err != nil {
		tb.Fatal(err)
	}
}

// TestQ1AllocBudget counts the heap allocations of one q1 job, build and run,
// averaged over three: about 118 000 with keys formatted by strconv, one
// pre-aggregation allocation per group and generated rows cut from one slab
// per partition, 240 844 when every key went through fmt.
func TestQ1AllocBudget(t *testing.T) {
	const budget, runs = 150_000, 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		runQ1(t)
	}
	runtime.ReadMemStats(&after)
	if got := (after.Mallocs - before.Mallocs) / runs; got > budget {
		t.Errorf("q1 made %d allocations per job, budget %d (+%d)", got, budget, got-budget)
	}
}

// BenchmarkQ1Local times one q1 job as TestQ1AllocBudget runs it:
// go test -run '^$' -bench Q1Local ./internal/remote/workload.
func BenchmarkQ1Local(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runQ1(b)
	}
}
