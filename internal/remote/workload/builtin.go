package workload

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"ursa/internal/core"
	"ursa/internal/dataset"
	"ursa/internal/localrt"
	"ursa/internal/rowcodec"
	"ursa/internal/sqlmini"
)

// Builtin workloads. Both binaries (ursa-master, ursa-worker) and the
// loopback tests link this package, so the builders — and the rowcodec
// registrations their row types need — exist on every side of a socket.

func init() {
	rowcodec.Register(dataset.PairCodec(rowcodec.String, rowcodec.Int))
	sqlmini.RegisterWireTypes()
	Register("wordcount", buildWordCount)
	Register("sql_analytics", buildSQLAnalytics)
	Register("micro", buildMicro)
	Register("sql", buildSQL)
}

// MicroParams shapes the "micro" workload: a tiny two-stage map/reduce used
// by the end-to-end benchmark and multi-tenant tests, where thousands of jobs
// must be built cheaply. MemEstimate is the admission reservation M(j) the
// job claims — the knob that makes a backlog queue behind the memory gate.
type MicroParams struct {
	Rows     int
	InParts  int
	OutParts int
	Keys     int
	// MemEstimate is the job's claimed memory (scheduler units).
	MemEstimate float64
	// HoldMs makes the map stage take at least this long (the partition
	// holding row 0 sleeps) — the benchmark's (slot-hold) stand-in for real job
	// runtime, so admitted jobs occupy their reservations for a realistic
	// duration instead of finishing in microseconds.
	HoldMs int
}

// Micro encodes params for the "micro" workload.
func Micro(p MicroParams) (string, []byte) {
	b, _ := json.Marshal(p)
	return "micro", b
}

func buildMicro(params []byte) (*BuiltJob, error) {
	var p MicroParams
	if len(params) > 0 {
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("workload: micro params: %w", err)
		}
	}
	// Unset (or nonsensical) shape fields default individually, so callers
	// can set just the knobs they care about (Rows, MemEstimate).
	if p.Rows <= 0 {
		p.Rows = 64
	}
	if p.InParts <= 0 {
		p.InParts = 2
	}
	if p.OutParts <= 0 {
		p.OutParts = 2
	}
	if p.Keys <= 0 {
		p.Keys = 8
	}
	sess := dataset.NewSession()
	ds := dataset.Generate(sess, p.Rows, p.InParts, func(part, parts int) []int {
		return strided(p.Rows, part, parts, func(i int) int { return i })
	})
	keys := p.Keys
	holdMs := p.HoldMs
	pairs := dataset.FlatMap(ds, "key", func(v int) []dataset.Pair[string, int] {
		if holdMs > 0 && v == 0 {
			// Row 0 exists exactly once per job: one partition pays the hold.
			time.Sleep(time.Duration(holdMs) * time.Millisecond)
		}
		return []dataset.Pair[string, int]{{Key: fmt.Sprintf("k%d", v%keys), Val: v}}
	})
	sums := dataset.ReduceByKey(pairs, "sum", p.OutParts, func(a, b int) int { return a + b })
	plan, err := sess.Graph().Build()
	if err != nil {
		return nil, fmt.Errorf("workload: micro: %w", err)
	}
	return &BuiltJob{
		Spec:   core.JobSpec{Name: "micro", Graph: sess.Graph(), MemEstimate: p.MemEstimate},
		Plan:   plan,
		Inputs: sess.InputBindings(),
		Output: sums.Dag(),
		Cols:   []string{"key", "sum"},
	}, nil
}

// WordCountParams shapes the "wordcount" workload: Lines synthetic input
// lines over InParts partitions, counts reduced into OutParts partitions.
type WordCountParams struct {
	Lines    int
	InParts  int
	OutParts int
}

// WordCount encodes params for the "wordcount" workload.
func WordCount(p WordCountParams) (string, []byte) {
	b, _ := json.Marshal(p)
	return "wordcount", b
}

func buildWordCount(params []byte) (*BuiltJob, error) {
	p := WordCountParams{Lines: 2000, InParts: 6, OutParts: 4}
	if len(params) > 0 {
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("workload: wordcount params: %w", err)
		}
	}
	if p.Lines <= 0 || p.InParts <= 0 || p.OutParts <= 0 {
		return nil, fmt.Errorf("workload: wordcount params must be positive: %+v", p)
	}
	sess := dataset.NewSession()
	ds := dataset.Generate(sess, p.Lines, p.InParts, func(part, parts int) []string {
		return strided(p.Lines, part, parts, func(i int) string {
			return fmt.Sprintf("w%d w%d common tokens", i%13, i%7)
		})
	})
	words := dataset.FlatMap(ds, "tokenize", func(line string) []dataset.Pair[string, int] {
		fields := strings.Fields(line)
		out := make([]dataset.Pair[string, int], len(fields))
		for i, w := range fields {
			out[i] = dataset.Pair[string, int]{Key: w, Val: 1}
		}
		return out
	})
	counts := dataset.ReduceByKey(words, "count", p.OutParts, func(a, b int) int { return a + b })
	plan, err := sess.Graph().Build()
	if err != nil {
		return nil, fmt.Errorf("workload: wordcount: %w", err)
	}
	return &BuiltJob{
		Spec:   core.JobSpec{Name: "wordcount", Graph: sess.Graph()},
		Plan:   plan,
		Inputs: sess.InputBindings(),
		Output: counts.Dag(),
		Cols:   []string{"word", "count"},
	}, nil
}

// SQLParams shapes the "sql_analytics" workload: one OLAP query over the
// deterministic sales/products tables (the sql_analytics example's schema).
type SQLParams struct {
	// Query is the SQL text; empty selects QueryIndex from the example's
	// canned query list.
	Query string
	// QueryIndex picks a canned query when Query is empty.
	QueryIndex int
	// SalesRows sizes the generated sales table (default 2000).
	SalesRows int
}

// SQLQueries is the sql_analytics example's query list.
var SQLQueries = []string{
	"SELECT region, SUM(amount) AS revenue, COUNT(*) AS orders FROM sales GROUP BY region ORDER BY revenue DESC",
	"SELECT category, SUM(amount) AS revenue FROM sales JOIN products ON product_id = id WHERE amount > 50 GROUP BY category ORDER BY revenue DESC LIMIT 3",
	"SELECT product_id, MAX(amount) AS biggest FROM sales WHERE region = 'emea' GROUP BY product_id ORDER BY biggest DESC LIMIT 5",
}

// SQLAnalytics encodes params for the "sql_analytics" workload.
func SQLAnalytics(p SQLParams) (string, []byte) {
	b, _ := json.Marshal(p)
	return "sql_analytics", b
}

func buildSQLAnalytics(params []byte) (*BuiltJob, error) {
	p := SQLParams{SalesRows: 2000}
	if len(params) > 0 {
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("workload: sql_analytics params: %w", err)
		}
	}
	if p.SalesRows <= 0 {
		p.SalesRows = 2000
	}
	sql := p.Query
	if sql == "" {
		if p.QueryIndex < 0 || p.QueryIndex >= len(SQLQueries) {
			return nil, fmt.Errorf("workload: sql_analytics query index %d out of range", p.QueryIndex)
		}
		sql = SQLQueries[p.QueryIndex]
	}
	db := sqlmini.NewDB()
	db.Add(salesTable(p.SalesRows))
	db.Add(productsTable())
	q, err := sqlmini.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("workload: sql_analytics: %w", err)
	}
	c, err := sqlmini.Compile(db, q)
	if err != nil {
		return nil, fmt.Errorf("workload: sql_analytics: %w", err)
	}
	finish := func(rows []localrt.Row) ([]localrt.Row, error) {
		typed := make([][]sqlmini.Value, len(rows))
		for i, r := range rows {
			typed[i] = r.([]sqlmini.Value)
		}
		res, err := c.Finish(typed)
		if err != nil {
			return nil, err
		}
		out := make([]localrt.Row, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = r
		}
		return out, nil
	}
	plan, err := c.Sess.Graph().Build()
	if err != nil {
		return nil, fmt.Errorf("workload: sql_analytics: %w", err)
	}
	name := sql
	if len(name) > 40 {
		name = name[:40] + "…"
	}
	return &BuiltJob{
		Spec:   core.JobSpec{Name: "sql: " + name, Graph: c.Sess.Graph()},
		Plan:   plan,
		Inputs: c.Sess.InputBindings(),
		Output: c.Out.Dag(),
		Cols:   c.Cols,
		Finish: finish,
	}, nil
}

// CSVTable is one input table of the "sql" workload, shipped as CSV text in
// the params so a remote submission can query the client's own data.
type CSVTable struct {
	Name string
	CSV  string
}

// SQLCSVParams shapes the "sql" workload: an arbitrary query over tables
// shipped as CSV in the params. The CSV text IS part of the job identity:
// every process parses the same bytes, so the builder stays deterministic.
// Each table is a generated input (sqlmini.GenCSV): describing a job only
// counts its rows, and the monotask that reads a partition parses it.
type SQLCSVParams struct {
	Query  string
	Tables []CSVTable
}

// SQLCSV encodes params for the "sql" workload.
func SQLCSV(p SQLCSVParams) (string, []byte) {
	b, _ := json.Marshal(p)
	return "sql", b
}

func buildSQL(params []byte) (*BuiltJob, error) {
	// Default: a tiny self-contained query, so Build("sql", nil) works and
	// registry-wide smoke tests cover this builder too.
	p := SQLCSVParams{
		Query:  "SELECT k, SUM(v) AS total FROM t GROUP BY k ORDER BY total DESC",
		Tables: []CSVTable{{Name: "t", CSV: "k,v\na,1\nb,2\na,3\n"}},
	}
	if len(params) > 0 {
		p = SQLCSVParams{}
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("workload: sql params: %w", err)
		}
	}
	if p.Query == "" {
		return nil, fmt.Errorf("workload: sql params need a query")
	}
	db := sqlmini.NewDB()
	for _, ct := range p.Tables {
		t, err := sqlmini.GenCSV(ct.Name, ct.CSV)
		if err != nil {
			return nil, fmt.Errorf("workload: sql table %q: %w", ct.Name, err)
		}
		db.Add(t)
	}
	q, err := sqlmini.Parse(p.Query)
	if err != nil {
		return nil, fmt.Errorf("workload: sql: %w", err)
	}
	c, err := sqlmini.Compile(db, q)
	if err != nil {
		return nil, fmt.Errorf("workload: sql: %w", err)
	}
	finish := func(rows []localrt.Row) ([]localrt.Row, error) {
		typed := make([][]sqlmini.Value, len(rows))
		for i, r := range rows {
			typed[i] = r.([]sqlmini.Value)
		}
		res, err := c.Finish(typed)
		if err != nil {
			return nil, err
		}
		out := make([]localrt.Row, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = r
		}
		return out, nil
	}
	plan, err := c.Sess.Graph().Build()
	if err != nil {
		return nil, fmt.Errorf("workload: sql: %w", err)
	}
	name := p.Query
	if len(name) > 40 {
		name = name[:40] + "…"
	}
	return &BuiltJob{
		Spec:   core.JobSpec{Name: "sql: " + name, Graph: c.Sess.Graph()},
		Plan:   plan,
		Inputs: c.Sess.InputBindings(),
		Output: c.Out.Dag(),
		Cols:   c.Cols,
		Finish: finish,
	}, nil
}

// strided makes partition part of parts of an n-row input whose row i is
// row(i): the rows i%parts == part, in order (localrt.PartGen's rule).
func strided[T any](n, part, parts int, row func(i int) T) []T {
	out := make([]T, 0, localrt.PartLen(n, part, parts))
	for i := part; i < n; i += parts {
		out = append(out, row(i))
	}
	return out
}

// salesTable mirrors the sql_analytics example's generator: n rows drawn
// under the fixed seed. It is generated, so each partition replays the whole
// sequence and keeps its own rows, and every process makes identical ones.
// A partition's rows share one slab of cells, each row capped at its own four,
// and the region and product cells are boxed once per call.
func salesTable(n int) *sqlmini.Table {
	const products = 20
	regions := []string{"amer", "emea", "apac"}
	return &sqlmini.Table{
		Name: "sales", Cols: []string{"order_id", "product_id", "region", "amount"},
		N: n,
		Gen: func(part, parts int) [][]sqlmini.Value {
			regionCells := make([]sqlmini.Value, len(regions))
			for i, r := range regions {
				regionCells[i] = r
			}
			productCells := make([]sqlmini.Value, products)
			for i := range productCells {
				productCells[i] = float64(i)
			}
			rng := rand.New(rand.NewSource(42))
			out := make([][]sqlmini.Value, 0, localrt.PartLen(n, part, parts))
			cells := make([]sqlmini.Value, 4*cap(out))
			for i := 0; i < n; i++ {
				product, region, amount := rng.Intn(products), rng.Intn(len(regions)), rng.Float64()
				if i%parts == part {
					k := 4 * len(out)
					r := cells[k : k+4 : k+4]
					r[0], r[1], r[2], r[3] = float64(i), productCells[product], regionCells[region], 10+200*amount
					out = append(out, r)
				}
			}
			return out
		},
	}
}

func productsTable() *sqlmini.Table {
	const n = 20
	cats := []string{"widgets", "gadgets", "gizmos", "doohickeys"}
	return &sqlmini.Table{
		Name: "products", Cols: []string{"id", "category"},
		N: n,
		Gen: func(part, parts int) [][]sqlmini.Value {
			return strided(n, part, parts, func(i int) []sqlmini.Value {
				return []sqlmini.Value{float64(i), cats[i%len(cats)]}
			})
		},
	}
}
