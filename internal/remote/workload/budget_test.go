package workload

import (
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
