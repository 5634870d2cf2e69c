package workload

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/localrt"
)

// TestBuildersDeterministic verifies the cross-process identity contract:
// two independent builds of the same (name, params) produce plans with
// identical structure IDs and identical inputs.
func TestBuildersDeterministic(t *testing.T) {
	cases := []struct {
		name   string
		params []byte
	}{
		{"wordcount", nil},
		{"sql_analytics", nil},
	}
	for _, tc := range cases {
		a, err := Build(tc.name, tc.params)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b, err := Build(tc.name, tc.params)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, want := len(a.Plan.Monotasks), len(b.Plan.Monotasks); got != want {
			t.Fatalf("%s: monotask counts differ: %d vs %d", tc.name, got, want)
		}
		if a.Output.ID != b.Output.ID {
			t.Fatalf("%s: output dataset IDs differ: %d vs %d", tc.name, a.Output.ID, b.Output.ID)
		}
		if len(a.Inputs) != len(b.Inputs) {
			t.Fatalf("%s: input counts differ", tc.name)
		}
		for i := range a.Inputs {
			if a.Inputs[i].Dataset.ID != b.Inputs[i].Dataset.ID {
				t.Fatalf("%s: input %d dataset IDs differ", tc.name, i)
			}
			if !reflect.DeepEqual(a.Inputs[i].Rows, b.Inputs[i].Rows) {
				t.Fatalf("%s: input %d rows differ", tc.name, i)
			}
		}
	}
}

type closureCase struct {
	label, name string
	params      []byte
}

// closureCases is every builtin, in every shape that materializes a
// different set of row types.
func closureCases() []closureCase {
	var cases []closureCase
	add := func(label string) func(name string, params []byte) {
		return func(name string, params []byte) { cases = append(cases, closureCase{label, name, params}) }
	}
	add("micro")(Micro(MicroParams{Rows: 200, InParts: 3, OutParts: 2}))
	add("wordcount")(WordCount(WordCountParams{Lines: 300, InParts: 3, OutParts: 2}))
	for qi := range SQLQueries {
		add(fmt.Sprintf("sql_analytics/%d", qi))(SQLAnalytics(SQLParams{QueryIndex: qi, SalesRows: 500}))
	}
	add("sql/join-project")(SQLCSV(SQLCSVParams{
		Query: "SELECT region, label, amount * 2 AS twice FROM sales JOIN regions ON region = code WHERE amount > 5 ORDER BY twice",
		Tables: []CSVTable{
			{Name: "sales", CSV: "region,amount\neast,10\nwest,5\neast,7\nnorth,9\n"},
			{Name: "regions", CSV: "code,label\neast,East\nwest,West\nsouth,South\n"},
		},
	}))
	add("sql/default")("sql", nil)
	return cases
}

// inputFingerprints pins every closure case's materialized inputs, hashed as
// inputsFingerprint hashes them: the rows each builtin made before its inputs
// were generated where they are read.
var inputFingerprints = map[string]uint64{
	"micro":            0x14d4d9543a757948,
	"wordcount":        0xe8230b0e78c28fd6,
	"sql_analytics/0":  0x847320ed7daca9cc,
	"sql_analytics/1":  0x8345717263467097,
	"sql_analytics/2":  0x847320ed7daca9cc,
	"sql/join-project": 0x60e0649ca5f7d7fe,
	"sql/default":      0x2e028575c22a175c,
}

func inputsFingerprint(inputs []localrt.PlanInput) uint64 {
	h := fnv.New64a()
	for _, in := range inputs {
		fmt.Fprintf(h, "%d:%#v;", in.Dataset.Partitions, in.Rows)
	}
	return h.Sum64()
}

// TestGeneratedPartitionsMatchSplit: for every builtin, each partition a
// generated input makes is, row for row, SplitInput's partition of Build's
// materialized rows, and the row count it declares is theirs. Build's rows
// are the ones the builtin made before its inputs were generated. Every
// table of a "sql" job is generated.
func TestGeneratedPartitionsMatchSplit(t *testing.T) {
	generated := 0
	for _, c := range closureCases() {
		if c.name == "sql" {
			desc, err := Describe(c.name, c.params)
			if err != nil {
				t.Fatalf("%s: %v", c.label, err)
			}
			for i, in := range desc.Inputs {
				if in.Gen == nil {
					t.Errorf("%s: input %d is not generated", c.label, i)
				}
			}
		}
		bj, err := Build(c.name, c.params)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if got, want := inputsFingerprint(bj.Inputs), inputFingerprints[c.label]; got != want {
			t.Errorf("%s: materialized inputs hash to %#x, want %#x", c.label, got, want)
		}
		desc, err := Describe(c.name, c.params)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		for i, in := range desc.Inputs {
			if in.Gen == nil {
				continue
			}
			generated++
			rows := bj.Inputs[i].Rows
			if in.N != len(rows) {
				t.Errorf("%s: input %d declares %d rows, Build made %d", c.label, i, in.N, len(rows))
			}
			for p, want := range localrt.SplitInput(bj.Inputs[i].Dataset, rows) {
				got := in.Gen(p, in.Dataset.Partitions)
				if (len(got) > 0 || len(want) > 0) && !reflect.DeepEqual(got, want) {
					t.Errorf("%s: input %d partition %d generated\n %v\nwant %v", c.label, i, p, got, want)
				}
			}
		}
	}
	if generated == 0 {
		t.Error("no builtin generates an input")
	}
}

// TestRowTypeClosure runs every builtin the way the cluster does, one
// monotask at a time with nothing but blobs between tasks: each task runs in
// a runtime of its own whose inputs arrive encoded from a canonical store (as
// shuffle fetches do) and whose outputs go back encoded (as a completion's
// writes do). Every contribution that leaves a task, job inputs included, is
// therefore encoded and decoded by Codec{}, so a row type a builtin ships but
// nobody registered fails here, not in a cluster job; and the result must
// equal the codec-less run's down to the dynamic type of every cell. A
// chain-internal dataset never leaves its monotask and a task-internal one
// never leaves its task, so their rows are never encoded, here or in a
// cluster.
func TestRowTypeClosure(t *testing.T) {
	for _, c := range closureCases() {
		want := runDirect(t, c.name, c.params)
		got, err := runThroughBlobs(c.name, c.params)
		if err != nil {
			t.Errorf("%s: %v", c.label, err)
			continue
		}
		if len(want) == 0 {
			t.Errorf("%s: no output rows", c.label)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: rows differ from the codec-less run:\n got %#v\nwant %#v", c.label, got, want)
		}
	}
}

func runDirect(t *testing.T, name string, params []byte) []localrt.Row {
	t.Helper()
	bj, err := Build(name, params)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rows, err := localrt.LocalRunner{}.RunPlan(bj.Plan, bj.Inputs)
	if err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	out := rows(bj.Output)
	if bj.Finish != nil {
		if out, err = bj.Finish(out); err != nil {
			t.Fatalf("%s: finish: %v", name, err)
		}
	}
	return out
}

func runThroughBlobs(name string, params []byte) ([]localrt.Row, error) {
	bj, err := Build(name, params)
	if err != nil {
		return nil, err
	}
	plan := bj.Plan
	canon := localrt.New(plan)
	canon.SetCodec(Codec{})
	for _, in := range bj.Inputs {
		canon.SetInput(in.Dataset, in.Rows)
	}
	var ready []*dag.Monotask
	for _, task := range plan.InitialReady() {
		ready = append(ready, task.ReadyMonotasks()...)
	}
	rts := make(map[*dag.Task]*localrt.Runtime)
	for len(ready) > 0 {
		mt := ready[0]
		ready = ready[1:]
		plan.Prepare(mt)
		w := rts[mt.Task]
		if w == nil {
			w = localrt.New(plan)
			w.SetCodec(Codec{})
			rts[mt.Task] = w
		}
		for _, in := range localrt.InputParts(plan, mt) {
			refs, err := canon.PartBlobsAppend(nil, in.Dataset, in.Part)
			if err != nil {
				return nil, fmt.Errorf("%v: serving dataset %d part %d: %w", mt, in.Dataset.ID, in.Part, err)
			}
			for _, ref := range refs {
				w.InsertEncoded(in.Dataset, in.Part, ref.MTID, ref.Data, ref.Flags, ref.RawLen)
			}
		}
		writes, err := w.ExecRecord(mt)
		if err != nil {
			return nil, err
		}
		for _, wr := range writes {
			blob, flags, rawLen, err := w.ContribBlob(wr.Dataset, wr.Part, mt.ID)
			if err != nil {
				return nil, err
			}
			canon.InsertEncoded(wr.Dataset, wr.Part, mt.ID, blob, flags, rawLen)
		}
		res := plan.Complete(mt)
		ready = append(ready, res.NewReadyMonotasks...)
		for _, task := range res.NewReadyTasks {
			ready = append(ready, task.ReadyMonotasks()...)
		}
	}
	if !plan.AllDone() {
		return nil, fmt.Errorf("plan stalled")
	}
	rows, err := canon.RowsErr(bj.Output)
	if err != nil || bj.Finish == nil {
		return rows, err
	}
	return bj.Finish(rows)
}

// TestOutputLeavesItsMonotask: a runtime with a codec never commits a
// chain-internal dataset nor ships a task-internal one, so a builtin whose
// result were either would reach the master empty.
func TestOutputLeavesItsMonotask(t *testing.T) {
	for _, c := range closureCases() {
		bj, err := Build(c.name, c.params)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if bj.Plan.ChainInternal(bj.Output) || bj.Plan.TaskInternal(bj.Output) {
			t.Errorf("%s: output dataset %d never leaves its monotask or task", c.label, bj.Output.ID)
		}
	}
}
