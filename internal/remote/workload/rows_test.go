package workload

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"ursa/internal/localrt"
	"ursa/internal/sqlmini"
)

// resultCases are the jobs whose result rows resultFingerprints pins: every
// sql_analytics query at shuffle-sql's 20 000 sales rows, query 1's join
// without the aggregation (its merged rows are the result), and a "sql" job
// whose CSV tables join on a float key and group by two strings.
func resultCases() []closureCase {
	var cases []closureCase
	for qi := range SQLQueries {
		name, params := SQLAnalytics(SQLParams{QueryIndex: qi, SalesRows: 20000})
		cases = append(cases, closureCase{fmt.Sprintf("sql_analytics/%d", qi), name, params})
	}
	name, params := SQLAnalytics(SQLParams{SalesRows: 20000,
		Query: "SELECT * FROM sales JOIN products ON product_id = id WHERE amount > 50"})
	cases = append(cases, closureCase{"sql_analytics/join-rows", name, params})
	var orders, items strings.Builder
	orders.WriteString("order,pid,region,amount\n")
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&orders, "%d,%d,%s,%.3f\n", i, i*7%23, []string{"north", "south", "east"}[i%3], float64(i*37%1000)/7)
	}
	items.WriteString("id,label\n")
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&items, "%d,item-%d\n", i, i%6)
	}
	name, params = SQLCSV(SQLCSVParams{
		Query: "SELECT label, region, SUM(amount) AS total, COUNT(*) AS n, MIN(amount) AS lo FROM orders JOIN items ON pid = id " +
			"WHERE amount > 3 GROUP BY label, region ORDER BY total DESC",
		Tables: []CSVTable{{Name: "orders", CSV: orders.String()}, {Name: "items", CSV: items.String()}},
	})
	return append(cases, closureCase{"sql/csv-join-group", name, params})
}

// resultFingerprints pins each result case's rows, hashed by rowsFingerprint:
// the output dataset's rows as the runtime collects them, then the rows after
// ORDER BY and LIMIT.
var resultFingerprints = map[string][2]uint64{
	"sql_analytics/0":         {0xd7274a018d6f9b, 0xd7274a018d6f9b},
	"sql_analytics/1":         {0x72707ea809050fe2, 0x936641e7098a863b},
	"sql_analytics/2":         {0x89fb0740e39be23a, 0x4286889d279f1fc1},
	"sql_analytics/join-rows": {0xa7830190da943de, 0xa7830190da943de},
	"sql/csv-join-group":      {0x5efa72cd50f363d2, 0xc9951018b4de29c0},
}

// rowsFingerprint hashes every cell's dynamic type and fmt.Sprint form, which
// for a float64 is the shortest text that parses back to its bits.
func rowsFingerprint(rows []localrt.Row) uint64 {
	h := fnv.New64a()
	for _, r := range rows {
		for _, c := range r.([]sqlmini.Value) {
			fmt.Fprintf(h, "%T:%v\x1f", c, c)
		}
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// TestResultRowsPinned: the SQL row path (keys, pre-aggregation, join,
// generated tables) makes the same rows, in the same order, as the pinned
// runs did.
func TestResultRowsPinned(t *testing.T) {
	for _, c := range resultCases() {
		bj, err := Build(c.name, c.params)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		rows, err := localrt.LocalRunner{}.RunPlan(bj.Plan, bj.Inputs)
		if err != nil {
			t.Fatalf("%s: run: %v", c.label, err)
		}
		out := rows(bj.Output)
		final, err := bj.Finish(out)
		if err != nil {
			t.Fatalf("%s: finish: %v", c.label, err)
		}
		got := [2]uint64{rowsFingerprint(out), rowsFingerprint(final)}
		if want := resultFingerprints[c.label]; got != want {
			t.Errorf("%s: %d output and %d result rows hash to %#x, want %#x", c.label, len(out), len(final), got, want)
		}
	}
}
