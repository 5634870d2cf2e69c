package sqlmini

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"ursa/internal/dataset"
	"ursa/internal/localrt"
)

// Value is a cell: float64 or string.
type Value = any

// Table is a relation: in memory (Rows), or generated (N rows made by Gen a
// partition at a time, by the query's monotasks that read them; Gen follows
// localrt.PartGen's rule, so Gen(0, 1) is the whole table).
type Table struct {
	Name string
	Cols []string
	Rows [][]Value
	N    int
	Gen  func(part, parts int) [][]Value
}

// input declares the table as a job input of the query's session.
func (t *Table) input(sess *dataset.Session) *dataset.Dataset[row] {
	if t.Gen != nil {
		return dataset.Generate(sess, t.N, queryParts, t.Gen)
	}
	return dataset.Parallelize(sess, t.Rows, queryParts)
}

// DB is a set of named tables.
type DB struct {
	tables map[string]*Table

	// Runner, when non-nil, selects the execution back-end for queries:
	// the default is direct local execution (localrt.LocalRunner); the live
	// runner (internal/live) pushes each query's plan through the full Ursa
	// scheduler instead.
	Runner localrt.Runner
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{tables: make(map[string]*Table)} }

// Add registers a table.
func (db *DB) Add(t *Table) { db.tables[strings.ToLower(t.Name)] = t }

// Get looks a table up by name.
func (db *DB) Get(name string) (*Table, bool) {
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// LoadCSV reads a table from CSV with a header row; numeric-looking cells
// become float64, the rest stay strings.
func LoadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("sql: reading CSV header: %w", err)
	}
	t := &Table{Name: name, Cols: header}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("sql: reading CSV: %w", err)
		}
		t.Rows = append(t.Rows, csvRow(rec))
	}
	return t, nil
}

// GenCSV is LoadCSV as a generated table: it reads text once for the header
// and the row count and keeps no row, and its generator reads text again for
// each partition, keeping rows i%parts == part (localrt.PartGen's rule).
func GenCSV(name, text string) (*Table, error) {
	cr := csv.NewReader(strings.NewReader(text))
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("sql: reading CSV header: %w", err)
	}
	n := 0
	for ; ; n++ {
		if _, err := cr.Read(); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("sql: reading CSV: %w", err)
		}
	}
	return &Table{Name: name, Cols: header, N: n, Gen: func(part, parts int) [][]Value {
		cr := csv.NewReader(strings.NewReader(text))
		cr.Read() // the header; every record parsed once already
		out := make([][]Value, 0, localrt.PartLen(n, part, parts))
		for i := 0; i < n; i++ {
			rec, _ := cr.Read()
			if i%parts == part {
				out = append(out, csvRow(rec))
			}
		}
		return out
	}}, nil
}

// csvRow types a CSV record's cells: float64 where they parse, else string.
func csvRow(rec []string) []Value {
	row := make([]Value, len(rec))
	for i, cell := range rec {
		if f, err := strconv.ParseFloat(cell, 64); err == nil {
			row[i] = f
		} else {
			row[i] = cell
		}
	}
	return row
}

// Result is a query's output relation.
type Result struct {
	Cols []string
	Rows [][]Value
}

// row is the runtime tuple: values positioned by the plan's schema.
type row = []Value

// schema maps qualified column names to positions.
type schema struct {
	cols []string // qualified "table.col" plus bare "col" aliases
	pos  map[string]int
}

func newSchema(table string, cols []string) *schema {
	s := &schema{pos: make(map[string]int, 2*len(cols))}
	for i, c := range cols {
		q := strings.ToLower(table + "." + c)
		b := strings.ToLower(c)
		s.cols = append(s.cols, q)
		s.pos[q] = i
		if _, dup := s.pos[b]; !dup {
			s.pos[b] = i
		}
	}
	return s
}

func (s *schema) width() int { return len(s.cols) }

// merge concatenates two schemas (join output).
func (s *schema) merge(o *schema) *schema {
	out := &schema{pos: make(map[string]int)}
	out.cols = append(append([]string{}, s.cols...), o.cols...)
	for name, i := range s.pos {
		out.pos[name] = i
	}
	for name, i := range o.pos {
		if _, dup := out.pos[name]; !dup {
			out.pos[name] = i + s.width()
		}
	}
	return out
}

func (s *schema) lookup(c ColRef) (int, error) {
	key := strings.ToLower(c.String())
	if i, ok := s.pos[key]; ok {
		return i, nil
	}
	return 0, fmt.Errorf("sql: unknown column %q", c)
}

// compileExpr turns an AST expression into an evaluator over rows.
func compileExpr(e Expr, sc *schema) (func(row) Value, error) {
	switch x := e.(type) {
	case Lit:
		v := x.Value
		return func(row) Value { return v }, nil
	case ColRef:
		i, err := sc.lookup(x)
		if err != nil {
			return nil, err
		}
		return func(r row) Value { return r[i] }, nil
	case BinOp:
		l, err := compileExpr(x.Left, sc)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(x.Right, sc)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return func(tu row) Value { return applyBin(op, l(tu), r(tu)) }, nil
	}
	return nil, fmt.Errorf("sql: cannot compile %v", e)
}

func applyBin(op string, a, b Value) Value {
	switch op {
	case "and":
		return truthy(a) && truthy(b)
	case "or":
		return truthy(a) || truthy(b)
	}
	switch op {
	case "=", "!=", "<", "<=", ">", ">=":
		return compareValues(op, a, b)
	}
	fa, fb := toFloat(a), toFloat(b)
	switch op {
	case "+":
		return fa + fb
	case "-":
		return fa - fb
	case "*":
		return fa * fb
	case "/":
		if fb == 0 {
			return 0.0
		}
		return fa / fb
	}
	return nil
}

func compareValues(op string, a, b Value) bool {
	var cmp int
	as, aIsStr := a.(string)
	bs, bIsStr := b.(string)
	if aIsStr && bIsStr {
		cmp = strings.Compare(as, bs)
	} else {
		fa, fb := toFloat(a), toFloat(b)
		switch {
		case fa < fb:
			cmp = -1
		case fa > fb:
			cmp = 1
		}
	}
	switch op {
	case "=":
		return cmp == 0
	case "!=":
		return cmp != 0
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	case ">=":
		return cmp >= 0
	}
	return false
}

func truthy(v Value) bool {
	b, ok := v.(bool)
	return ok && b
}

func toFloat(v Value) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int:
		return float64(x)
	case bool:
		if x {
			return 1
		}
		return 0
	}
	return 0
}

// EstimateSelectivity heuristically estimates a predicate's selectivity —
// the hook that feeds the m2i = 1 + s memory estimate of §4.2.1.
func EstimateSelectivity(e Expr) float64 {
	switch x := e.(type) {
	case nil:
		return 1
	case BinOp:
		switch x.Op {
		case "and":
			return EstimateSelectivity(x.Left) * EstimateSelectivity(x.Right)
		case "or":
			s := EstimateSelectivity(x.Left) + EstimateSelectivity(x.Right)
			if s > 1 {
				s = 1
			}
			return s
		case "=":
			return 0.1
		case "!=":
			return 0.9
		default: // range predicates
			return 0.3
		}
	}
	return 1
}

// queryParts is the default shuffle parallelism for local execution.
const queryParts = 4

// Run parses, plans and executes a query against the database using the
// dataset API (and therefore the local monotask runtime).
func Run(db *DB, sql string) (*Result, error) {
	q, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return Exec(db, q)
}

// Compiled is a planned query: the session holding its operation graph, the
// output dataset, and the post-processing (ORDER BY / LIMIT) that runs over
// the collected rows. Compile and Finish are split so the graph can be
// built identically in separate processes (the remote workload registry)
// while execution happens wherever the scheduler decides.
type Compiled struct {
	// Sess owns the query's operation graph and input bindings.
	Sess *dataset.Session
	// Out is the dataset holding the query's (pre-ORDER BY) output rows.
	Out *dataset.Dataset[[]Value]
	// Cols are the result column names.
	Cols []string

	q *Query
}

// Exec executes a parsed query: Compile, collect, Finish.
func Exec(db *DB, q *Query) (*Result, error) {
	c, err := Compile(db, q)
	if err != nil {
		return nil, err
	}
	if db.Runner != nil {
		c.Sess.SetRunner(db.Runner)
	}
	rows, err := dataset.Collect(c.Out)
	if err != nil {
		return nil, err
	}
	return c.Finish(rows)
}

// Compile parses nothing and executes nothing: it builds the query's
// operation graph against the database and returns the compiled handle.
func Compile(db *DB, q *Query) (*Compiled, error) {
	base, ok := db.Get(q.From)
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", q.From)
	}
	sess := dataset.NewSession()
	sc := newSchema(base.Name, base.Cols)
	cur := base.input(sess)

	where := q.Where
	// Predicate pushdown: filters that reference only the base table run
	// before the join.
	if q.Join != nil && where != nil {
		if pushable, rest := splitPredicate(where, sc); pushable != nil {
			pred, err := compileExpr(pushable, sc)
			if err != nil {
				return nil, err
			}
			cur = dataset.Filter(cur, "pushdown", func(r row) bool { return truthy(pred(r)) })
			cur.SetSelectivity(EstimateSelectivity(pushable))
			where = rest
		}
	}

	if q.Join != nil {
		joined, jsc, err := execJoin(db, sess, cur, sc, q.Join)
		if err != nil {
			return nil, err
		}
		cur, sc = joined, jsc
	}

	if where != nil {
		pred, err := compileExpr(where, sc)
		if err != nil {
			return nil, err
		}
		cur = dataset.Filter(cur, "where", func(r row) bool { return truthy(pred(r)) })
		cur.SetSelectivity(EstimateSelectivity(where))
	}

	var out *dataset.Dataset[row]
	var cols []string
	var err error
	if hasAgg(q) {
		out, cols, err = execAggregate(cur, sc, q)
	} else {
		out, cols, err = execProject(cur, sc, q)
	}
	if err != nil {
		return nil, err
	}
	return &Compiled{Sess: sess, Out: out, Cols: cols, q: q}, nil
}

// Finish applies the query's ORDER BY and LIMIT to the collected output
// rows and wraps them as a Result. It is deterministic given the rows (the
// sort is stable over the input order).
func (c *Compiled) Finish(rows [][]Value) (*Result, error) {
	q := c.q
	res := &Result{Cols: c.Cols, Rows: rows}
	if q.OrderBy != nil {
		idx := -1
		for i, col := range c.Cols {
			if strings.EqualFold(col, q.OrderBy.Col) {
				idx = i
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("sql: ORDER BY column %q not in select list", q.OrderBy.Col)
		}
		desc := q.OrderBy.Desc
		sort.SliceStable(res.Rows, func(i, j int) bool {
			less := compareValues("<", res.Rows[i][idx], res.Rows[j][idx])
			if desc {
				return !less && compareValues("!=", res.Rows[i][idx], res.Rows[j][idx])
			}
			return less
		})
	}
	if q.Limit >= 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, nil
}

// splitPredicate separates conjuncts resolvable against sc from the rest.
func splitPredicate(e Expr, sc *schema) (pushable, rest Expr) {
	if b, ok := e.(BinOp); ok && b.Op == "and" {
		pl, rl := splitPredicate(b.Left, sc)
		pr, rr := splitPredicate(b.Right, sc)
		return conj(pl, pr), conj(rl, rr)
	}
	if exprResolvable(e, sc) {
		return e, nil
	}
	return nil, e
}

func conj(a, b Expr) Expr {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return BinOp{Op: "and", Left: a, Right: b}
}

func exprResolvable(e Expr, sc *schema) bool {
	switch x := e.(type) {
	case Lit:
		return true
	case ColRef:
		_, err := sc.lookup(x)
		return err == nil
	case BinOp:
		return exprResolvable(x.Left, sc) && exprResolvable(x.Right, sc)
	}
	return false
}

// execJoin hash-joins cur with the clause's table on the equi-key.
func execJoin(db *DB, sess *dataset.Session, cur *dataset.Dataset[row], sc *schema,
	jc *JoinClause) (*dataset.Dataset[row], *schema, error) {
	right, ok := db.Get(jc.Table)
	if !ok {
		return nil, nil, fmt.Errorf("sql: unknown join table %q", jc.Table)
	}
	rsc := newSchema(right.Name, right.Cols)
	// Resolve which key belongs to which side.
	lk, rk := jc.LeftKey, jc.RightKey
	if _, err := sc.lookup(lk); err != nil {
		lk, rk = rk, lk
	}
	li, err := sc.lookup(lk)
	if err != nil {
		return nil, nil, err
	}
	ri, err := rsc.lookup(rk)
	if err != nil {
		return nil, nil, err
	}
	rightDS := right.input(sess)
	lKeyed := dataset.Map(cur, "lkey", func(r row) dataset.Pair[string, row] {
		return dataset.Pair[string, row]{Key: keyOf(r[li]), Val: r}
	})
	rKeyed := dataset.Map(rightDS, "rkey", func(r row) dataset.Pair[string, row] {
		return dataset.Pair[string, row]{Key: keyOf(r[ri]), Val: r}
	})
	joined := dataset.Join(lKeyed, rKeyed, "join", queryParts, func(_ string, l, r row) row {
		out := make(row, len(l)+len(r))
		copy(out, l)
		copy(out[len(l):], r)
		return out
	})
	return joined, sc.merge(rsc), nil
}

// keyOf is a cell's join key: its fmt.Sprint form.
func keyOf(v Value) string {
	var b [32]byte
	return string(appendKey(b[:0], v))
}

// appendKey appends v's fmt.Sprint form to b, without fmt for every cell type
// rowcodec.Cell decodes: strconv's shortest 'g' form of a float64 is the
// text %v prints for it.
func appendKey(b []byte, v Value) []byte {
	switch x := v.(type) {
	case string:
		return append(b, x...)
	case float64:
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case bool:
		return strconv.AppendBool(b, x)
	}
	return fmt.Append(b, v)
}

func hasAgg(q *Query) bool {
	if len(q.GroupBy) > 0 {
		return true
	}
	for _, it := range q.Select {
		if it.Agg != AggNone {
			return true
		}
	}
	return false
}

// aggState accumulates one aggregate: (sum, count, min, max).
type aggState struct {
	Sum, Count, Min, Max float64
	Seen                 bool
}

func (a aggState) merge(b aggState) aggState {
	if !a.Seen {
		return b
	}
	if !b.Seen {
		return a
	}
	out := aggState{
		Sum:   a.Sum + b.Sum,
		Count: a.Count + b.Count,
		Min:   a.Min,
		Max:   a.Max,
		Seen:  true,
	}
	if b.Min < out.Min {
		out.Min = b.Min
	}
	if b.Max > out.Max {
		out.Max = b.Max
	}
	return out
}

func (a aggState) result(kind AggKind) Value {
	switch kind {
	case AggSum:
		return a.Sum
	case AggCount:
		return a.Count
	case AggAvg:
		if a.Count == 0 {
			return 0.0
		}
		return a.Sum / a.Count
	case AggMin:
		return a.Min
	case AggMax:
		return a.Max
	}
	return nil
}

// groupRow carries group-key values plus aggregate states through the
// shuffle.
type groupRow struct {
	Keys []Value
	Aggs []aggState
}

// execAggregate compiles GROUP BY + aggregates onto ReduceByKey.
func execAggregate(cur *dataset.Dataset[row], sc *schema,
	q *Query) (*dataset.Dataset[row], []string, error) {
	var keyIdx []int
	for _, g := range q.GroupBy {
		i, err := sc.lookup(g)
		if err != nil {
			return nil, nil, err
		}
		keyIdx = append(keyIdx, i)
	}
	// Validate select list: group columns or aggregates only.
	type outCol struct {
		agg    AggKind
		keyPos int // group columns: index into keyIdx; aggregates: agg slot
		name   string
	}
	var outs []outCol
	var aggEvals []func(row) Value
	var aggKinds []AggKind
	for _, it := range q.Select {
		if it.Agg == AggNone {
			c, ok := it.Expr.(ColRef)
			if !ok {
				return nil, nil, fmt.Errorf("sql: non-aggregate select item %q must be a grouped column", it.Name())
			}
			i, err := sc.lookup(c)
			if err != nil {
				return nil, nil, err
			}
			pos := -1
			for k, ki := range keyIdx {
				if ki == i {
					pos = k
				}
			}
			if pos < 0 {
				return nil, nil, fmt.Errorf("sql: column %q is not in GROUP BY", c)
			}
			outs = append(outs, outCol{agg: AggNone, keyPos: pos, name: it.Name()})
			continue
		}
		var eval func(row) Value
		if it.Expr != nil {
			var err error
			eval, err = compileExpr(it.Expr, sc)
			if err != nil {
				return nil, nil, err
			}
		}
		outs = append(outs, outCol{agg: it.Agg, keyPos: len(aggEvals), name: it.Name()})
		aggEvals = append(aggEvals, eval)
		aggKinds = append(aggKinds, it.Agg)
	}

	// A group's key is its cells' fmt.Sprint forms, each ended by a NUL. It is
	// built in one reused buffer; only a group's first row allocates.
	keyed := dataset.MapPartitions(cur, "pre-agg", func(rows []row) []dataset.Pair[string, groupRow] {
		var out []dataset.Pair[string, groupRow] // first-seen key order: emission must be deterministic
		at := map[string]int{}
		var buf []byte
		for _, r := range rows {
			buf = buf[:0]
			for _, ki := range keyIdx {
				buf = append(appendKey(buf, r[ki]), 0)
			}
			gi, ok := at[string(buf)]
			if !ok {
				keyVals := make([]Value, len(keyIdx))
				for i, ki := range keyIdx {
					keyVals[i] = r[ki]
				}
				gi = len(out)
				key := string(buf)
				at[key] = gi
				out = append(out, dataset.Pair[string, groupRow]{Key: key,
					Val: groupRow{Keys: keyVals, Aggs: make([]aggState, len(aggEvals))}})
			}
			aggs := out[gi].Val.Aggs
			for ai, eval := range aggEvals {
				var v float64 = 1 // COUNT(*)
				if eval != nil {
					v = toFloat(eval(r))
				}
				aggs[ai] = aggs[ai].merge(aggState{Sum: v, Count: 1, Min: v, Max: v, Seen: true})
			}
		}
		return out
	})
	reduced := dataset.ReduceByKey(keyed, "agg", queryParts, func(a, b groupRow) groupRow {
		merged := groupRow{Keys: a.Keys, Aggs: make([]aggState, len(a.Aggs))}
		for i := range a.Aggs {
			merged.Aggs[i] = a.Aggs[i].merge(b.Aggs[i])
		}
		return merged
	})
	final := dataset.Map(reduced, "project-agg", func(p dataset.Pair[string, groupRow]) row {
		out := make(row, len(outs))
		for i, oc := range outs {
			if oc.agg == AggNone {
				out[i] = p.Val.Keys[oc.keyPos]
			} else {
				out[i] = p.Val.Aggs[oc.keyPos].result(aggKinds[oc.keyPos])
			}
		}
		return out
	})
	var cols []string
	for _, oc := range outs {
		cols = append(cols, oc.name)
	}
	return final, cols, nil
}

// execProject compiles a plain projection.
func execProject(cur *dataset.Dataset[row], sc *schema, q *Query) (*dataset.Dataset[row], []string, error) {
	var cols []string
	var evals []func(row) Value
	star := false
	for _, it := range q.Select {
		if c, ok := it.Expr.(ColRef); ok && c.Name == "*" {
			star = true
			continue
		}
		eval, err := compileExpr(it.Expr, sc)
		if err != nil {
			return nil, nil, err
		}
		evals = append(evals, eval)
		cols = append(cols, it.Name())
	}
	if star || len(evals) == 0 {
		return cur, append([]string{}, sc.cols...), nil
	}
	out := dataset.Map(cur, "project", func(r row) row {
		o := make(row, len(evals))
		for i, f := range evals {
			o[i] = f(r)
		}
		return o
	})
	return out, cols, nil
}
