package workload

import (
	"fmt"
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

// TestRowTypeClosure runs every builtin the way the cluster does, one
// monotask at a time with nothing but blobs between them: each monotask runs
// in a runtime of its own whose inputs arrive encoded from a canonical store
// (as shuffle fetches do) and whose outputs go back encoded (as a Complete's
// writes do). Every contribution of every dataset, job inputs included, is
// therefore encoded and decoded by Codec{}, so a row type a builtin ships
// but nobody registered fails here, not in a cluster job; and the result
// must equal the codec-less run's down to the dynamic type of every cell.
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
	for len(ready) > 0 {
		mt := ready[0]
		ready = ready[1:]
		plan.Prepare(mt)
		w := localrt.New(plan)
		w.SetCodec(Codec{})
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
