package sqlmini

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	orders, err := LoadCSV("orders", strings.NewReader(
		"order_id,customer,amount,region\n"+
			"1,ada,100,west\n"+
			"2,grace,250,east\n"+
			"3,ada,75,west\n"+
			"4,alan,300,east\n"+
			"5,grace,50,west\n"+
			"6,ada,125,east\n"))
	if err != nil {
		t.Fatal(err)
	}
	db.Add(orders)
	customers, err := LoadCSV("customers", strings.NewReader(
		"name,country\n"+
			"ada,uk\n"+
			"grace,us\n"+
			"alan,uk\n"))
	if err != nil {
		t.Fatal(err)
	}
	db.Add(customers)
	return db
}

func runQuery(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	res, err := Run(db, sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return res
}

func TestSelectStar(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db, "SELECT * FROM orders")
	if len(res.Rows) != 6 {
		t.Errorf("rows = %d, want 6", len(res.Rows))
	}
	if len(res.Cols) != 4 {
		t.Errorf("cols = %v", res.Cols)
	}
}

func TestWhereAndProjection(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db, "SELECT customer, amount FROM orders WHERE amount > 100 AND region = 'east'")
	if len(res.Rows) != 3 { // orders 2, 4 and 6
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, r := range res.Rows {
		if r[1].(float64) <= 100 {
			t.Errorf("row %v violates predicate", r)
		}
	}
}

func TestGroupByAggregates(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db,
		"SELECT customer, SUM(amount) AS total, COUNT(*) AS n, AVG(amount) AS mean FROM orders GROUP BY customer ORDER BY total DESC")
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Rows))
	}
	// ada: 100+75+125 = 300 over 3 orders, alan: 300 over 1, grace: 300 over 2.
	totals := map[string]float64{}
	counts := map[string]float64{}
	for _, r := range res.Rows {
		totals[r[0].(string)] = r[1].(float64)
		counts[r[0].(string)] = r[2].(float64)
	}
	if totals["ada"] != 300 || counts["ada"] != 3 {
		t.Errorf("ada = %v/%v", totals["ada"], counts["ada"])
	}
	if totals["grace"] != 300 || counts["grace"] != 2 {
		t.Errorf("grace = %v/%v", totals["grace"], counts["grace"])
	}
	// AVG column sanity.
	for _, r := range res.Rows {
		want := r[1].(float64) / r[2].(float64)
		if math.Abs(r[3].(float64)-want) > 1e-9 {
			t.Errorf("avg for %v = %v, want %v", r[0], r[3], want)
		}
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db, "SELECT customer, amount FROM orders ORDER BY amount DESC LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][1].(float64) != 300 || res.Rows[1][1].(float64) != 250 {
		t.Errorf("top-2 = %v", res.Rows)
	}
}

func TestJoinWithGroupBy(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db,
		"SELECT country, SUM(amount) AS total FROM orders JOIN customers ON customer = name GROUP BY country ORDER BY total DESC")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	totals := map[string]float64{}
	for _, r := range res.Rows {
		totals[r[0].(string)] = r[1].(float64)
	}
	if totals["uk"] != 600 || totals["us"] != 300 {
		t.Errorf("totals = %v", totals)
	}
}

func TestJoinWithPushedDownFilter(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db,
		"SELECT name, amount FROM orders JOIN customers ON customer = name WHERE amount >= 250 AND country = 'uk'")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].(string) != "alan" || res.Rows[0][1].(float64) != 300 {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestArithmeticInSelect(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db, "SELECT order_id, amount * 2 + 1 AS adjusted FROM orders WHERE order_id = 1")
	if len(res.Rows) != 1 || res.Rows[0][1].(float64) != 201 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestParseErrors(t *testing.T) {
	db := testDB(t)
	bad := []string{
		"",
		"SELEKT * FROM orders",
		"SELECT FROM orders",
		"SELECT * FROM",
		"SELECT * FROM orders WHERE",
		"SELECT * FROM orders LIMIT x",
		"SELECT * FROM orders GARBAGE",
		"SELECT amount FROM orders WHERE amount = 'unterminated",
	}
	for _, sql := range bad {
		if _, err := Run(db, sql); err == nil {
			t.Errorf("query %q did not error", sql)
		}
	}
}

func TestSemanticErrors(t *testing.T) {
	db := testDB(t)
	bad := []string{
		"SELECT nope FROM orders",
		"SELECT * FROM nonexistent",
		"SELECT customer, SUM(amount) FROM orders GROUP BY region",
		"SELECT amount FROM orders ORDER BY missing",
		"SELECT * FROM orders JOIN customers ON bogus = name",
	}
	for _, sql := range bad {
		if _, err := Run(db, sql); err == nil {
			t.Errorf("query %q did not error", sql)
		}
	}
}

func TestEstimateSelectivity(t *testing.T) {
	q, err := Parse("SELECT * FROM orders WHERE amount > 10 AND region = 'west'")
	if err != nil {
		t.Fatal(err)
	}
	s := EstimateSelectivity(q.Where)
	if math.Abs(s-0.03) > 1e-9 { // 0.3 (range) × 0.1 (equality)
		t.Errorf("selectivity = %v, want 0.03", s)
	}
	if got := EstimateSelectivity(nil); got != 1 {
		t.Errorf("nil selectivity = %v", got)
	}
}

func TestQualifiedColumns(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db,
		"SELECT customers.country, orders.amount FROM orders JOIN customers ON orders.customer = customers.name WHERE orders.amount > 200")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestCSVTypeInference(t *testing.T) {
	tbl, err := LoadCSV("t", strings.NewReader("a,b\n1.5,hello\n2,world\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Rows[0][0].(float64); !ok {
		t.Errorf("numeric cell type = %T", tbl.Rows[0][0])
	}
	if _, ok := tbl.Rows[0][1].(string); !ok {
		t.Errorf("string cell type = %T", tbl.Rows[0][1])
	}
}

// TestAppendKeyMatchesSprint: the key formatter writes fmt.Sprint's text for
// every cell type rowcodec.Cell decodes (nil, bool, int, int64, float64,
// string), float edge cases and a seeded sweep of floats included, and for a
// type it does not special-case.
func TestAppendKeyMatchesSprint(t *testing.T) {
	cells := []Value{
		nil, true, false, 0, -1, 42, math.MaxInt64, math.MinInt64,
		int64(0), int64(-7), int64(math.MaxInt64), int64(math.MinInt64),
		"", "emea", "héllo\x00", uint8(3), []int{1},
		0.0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		1.0, 1e6, 1e20, 1e21, 1e-4, 1e-5, 5e-324, math.MaxFloat64, 0.1, 12.25, -3.5,
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		cells = append(cells,
			float64(rng.Intn(1e6)),
			10+200*rng.Float64(),
			math.Float64frombits(rng.Uint64()),
			rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	for _, c := range cells {
		if got, want := string(appendKey([]byte("x"), c)), "x"+fmt.Sprint(c); got != want {
			t.Errorf("appendKey(%T %v) = %q, want %q", c, c, got, want)
		}
	}
}
