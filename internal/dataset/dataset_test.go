package dataset

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"ursa/internal/live"
	"ursa/internal/localrt"
)

func TestMapFilterChain(t *testing.T) {
	s := NewSession()
	nums := Parallelize(s, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 3)
	squares := Map(nums, "square", func(x int) int { return x * x })
	evens := Filter(squares, "evens", func(x int) bool { return x%2 == 0 })
	got, err := Collect(evens)
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(got)
	want := []int{4, 16, 36, 64, 100}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestWordCountViaAPI(t *testing.T) {
	s := NewSession()
	lines := Parallelize(s, []string{
		"to be or not to be",
		"that is the question",
		"to be is to do",
	}, 2)
	words := FlatMap(lines, "tokenize", func(line string) []Pair[string, int] {
		var out []Pair[string, int]
		for _, w := range strings.Fields(line) {
			out = append(out, Pair[string, int]{w, 1})
		}
		return out
	})
	counts := ReduceByKey(words, "count", 3, func(a, b int) int { return a + b })
	rows, err := Collect(counts)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, p := range rows {
		got[p.Key] += p.Val
	}
	if got["to"] != 4 || got["be"] != 3 || got["is"] != 2 || got["question"] != 1 {
		t.Errorf("counts = %v", got)
	}
}

func TestGroupByKey(t *testing.T) {
	s := NewSession()
	pairs := Parallelize(s, []Pair[string, int]{
		{"a", 1}, {"b", 2}, {"a", 3}, {"b", 4}, {"c", 5},
	}, 2)
	groups := GroupByKey(pairs, "group", 2)
	rows := MustCollect(groups)
	sums := map[string]int{}
	for _, g := range rows {
		for _, v := range g.Val {
			sums[g.Key] += v
		}
	}
	if sums["a"] != 4 || sums["b"] != 6 || sums["c"] != 5 {
		t.Errorf("sums = %v", sums)
	}
}

func TestJoin(t *testing.T) {
	s := NewSession()
	users := Parallelize(s, []Pair[int, string]{
		{1, "ada"}, {2, "grace"}, {3, "alan"},
	}, 2)
	orders := Parallelize(s, []Pair[int, float64]{
		{1, 10.0}, {1, 20.0}, {3, 5.0}, {4, 99.0},
	}, 2)
	type order struct {
		id     int
		user   string
		amount float64
	}
	joined := Join(users, orders, "user-orders", 2, func(id int, user string, amount float64) order {
		return order{id, user, amount}
	})
	rows := MustCollect(joined)
	if len(rows) != 3 {
		t.Fatalf("join rows = %d, want 3 (key 2 has no order, key 4 no user)", len(rows))
	}
	ids := map[string]int{"ada": 1, "alan": 3}
	totals := map[string]float64{}
	for _, r := range rows {
		if r.id != ids[r.user] {
			t.Errorf("row %+v: key %d, want %d", r, r.id, ids[r.user])
		}
		totals[r.user] += r.amount
	}
	if totals["ada"] != 30 || totals["alan"] != 5 {
		t.Errorf("totals = %v", totals)
	}
}

func TestCoGroupOuterSemantics(t *testing.T) {
	s := NewSession()
	left := Parallelize(s, []Pair[string, int]{{"x", 1}}, 1)
	right := Parallelize(s, []Pair[string, int]{{"y", 2}}, 1)
	cg := CoGroup(left, right, "outer", 2)
	rows := MustCollect(cg)
	if len(rows) != 2 {
		t.Fatalf("cogroup rows = %d, want 2 (full outer)", len(rows))
	}
	for _, g := range rows {
		switch g.Key {
		case "x":
			if len(g.Left) != 1 || len(g.Right) != 0 {
				t.Errorf("x groups = %+v", g)
			}
		case "y":
			if len(g.Left) != 0 || len(g.Right) != 1 {
				t.Errorf("y groups = %+v", g)
			}
		}
	}
}

func TestWithBroadcast(t *testing.T) {
	s := NewSession()
	big := Parallelize(s, []int{1, 2, 3, 4, 5, 6}, 3)
	small := Parallelize(s, []int{10, 20}, 1)
	summed := WithBroadcast(big, small, "addall", func(part []int, small []int) []int {
		bonus := 0
		for _, v := range small {
			bonus += v
		}
		out := make([]int, len(part))
		for i, v := range part {
			out[i] = v + bonus
		}
		return out
	})
	rows := MustCollect(summed)
	sort.Ints(rows)
	want := []int{31, 32, 33, 34, 35, 36}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("rows = %v, want %v", rows, want)
		}
	}
}

func TestMultipleCollectsSameSession(t *testing.T) {
	s := NewSession()
	nums := Parallelize(s, []int{1, 2, 3}, 1)
	doubled := Map(nums, "x2", func(x int) int { return 2 * x })
	tripled := Map(nums, "x3", func(x int) int { return 3 * x })
	a := MustCollect(doubled)
	b := MustCollect(tripled)
	sort.Ints(a)
	sort.Ints(b)
	if a[0] != 2 || b[0] != 3 || len(a) != 3 || len(b) != 3 {
		t.Errorf("a=%v b=%v", a, b)
	}
}

func TestPregelPageRank(t *testing.T) {
	// A 4-vertex graph: 0→1, 0→2, 1→2, 2→0, 3→2 (3 is a source).
	edges := []Pair[int, int]{{0, 1}, {0, 2}, {1, 2}, {2, 0}, {3, 2}}
	var vertices []Pair[int, float64]
	for v := 0; v < 4; v++ {
		vertices = append(vertices, Pair[int, float64]{v, 0.25})
	}
	s := NewSession()
	prog := VertexProgram[int, float64, float64]{
		Scatter: func(id int, rank float64, outDeg int) float64 {
			return rank / float64(outDeg)
		},
		Combine: func(a, b float64) float64 { return a + b },
		Apply: func(id int, rank, msg float64, has bool) float64 {
			sum := 0.0
			if has {
				sum = msg
			}
			return 0.15/4 + 0.85*sum
		},
	}
	result := RunPregel(s, vertices, edges, 2, 10, prog)
	rows := MustCollect(result)
	ranks := map[int]float64{}
	var total float64
	for _, p := range rows {
		ranks[p.Key] = p.Val
		total += p.Val
	}
	if len(ranks) != 4 {
		t.Fatalf("ranks for %d vertices, want 4: %v", len(ranks), ranks)
	}
	// Vertex 2 has the most in-links; 3 has none.
	if !(ranks[2] > ranks[0] && ranks[0] > ranks[3]) {
		t.Errorf("rank ordering wrong: %v", ranks)
	}
	if ranks[3] != 0.15/4 {
		t.Errorf("source vertex rank = %v, want %v", ranks[3], 0.15/4)
	}
	// Ranks roughly conserve mass (dangling vertex 1..): just sanity-bound.
	if total < 0.3 || total > 1.2 {
		t.Errorf("total rank = %v out of range", total)
	}
}

func TestPregelConnectedComponents(t *testing.T) {
	// Two components: {0,1,2} and {3,4}; undirected via double edges.
	raw := [][2]int{{0, 1}, {1, 2}, {3, 4}}
	var edges []Pair[int, int]
	for _, e := range raw {
		edges = append(edges, Pair[int, int]{e[0], e[1]}, Pair[int, int]{e[1], e[0]})
	}
	var vertices []Pair[int, int]
	for v := 0; v < 5; v++ {
		vertices = append(vertices, Pair[int, int]{v, v})
	}
	s := NewSession()
	prog := VertexProgram[int, int, int]{
		Scatter: func(id, label, _ int) int { return label },
		Combine: func(a, b int) int {
			if a < b {
				return a
			}
			return b
		},
		Apply: func(id, label, msg int, has bool) int {
			if has && msg < label {
				return msg
			}
			return label
		},
	}
	result := RunPregel(s, vertices, edges, 2, 6, prog)
	labels := map[int]int{}
	for _, p := range MustCollect(result) {
		labels[p.Key] = p.Val
	}
	if labels[0] != 0 || labels[1] != 0 || labels[2] != 0 {
		t.Errorf("component A labels = %v", labels)
	}
	if labels[3] != 3 || labels[4] != 3 {
		t.Errorf("component B labels = %v", labels)
	}
}

func TestReduceByKeyNumericStability(t *testing.T) {
	s := NewSession()
	var pairs []Pair[string, float64]
	for i := 0; i < 1000; i++ {
		pairs = append(pairs, Pair[string, float64]{"sum", 0.001})
	}
	totals := ReduceByKey(Parallelize(s, pairs, 7), "sum", 3,
		func(a, b float64) float64 { return a + b })
	rows := MustCollect(totals)
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	if math.Abs(rows[0].Val-1.0) > 1e-9 {
		t.Errorf("sum = %v, want 1.0", rows[0].Val)
	}
}

// TestCollectChainInternal collects an intermediate that never leaves the
// monotask creating it (a later step of the same collapsed chain reads it,
// no monotask reads it as a dataset). Runtimes that move contributions
// between processes do not materialize such a dataset; the rows-only
// runtimes behind both runners keep it, so Collect still returns its rows.
func TestCollectChainInternal(t *testing.T) {
	for _, tc := range []struct {
		name   string
		runner localrt.Runner
	}{
		{"local", localrt.LocalRunner{}},
		{"live", &live.Runner{}},
	} {
		s := NewSession()
		s.SetRunner(tc.runner)
		nums := Parallelize(s, []int{1, 2, 3, 4, 5, 6}, 2)
		squares := Map(nums, "square", func(x int) int { return x * x })
		evens := Filter(squares, "evens", func(x int) bool { return x%2 == 0 })
		plan, err := s.Graph().Build()
		if err != nil {
			t.Fatal(err)
		}
		if !plan.ChainInternal(squares.Dag()) || plan.ChainInternal(evens.Dag()) {
			t.Fatalf("%s: squares chain-internal=%v, evens=%v; want true, false", tc.name,
				plan.ChainInternal(squares.Dag()), plan.ChainInternal(evens.Dag()))
		}
		if got := MustCollect(evens); len(got) != 3 {
			t.Errorf("%s: evens = %v, want 3 rows", tc.name, got)
		}
		got := MustCollect(squares)
		sort.Ints(got)
		if want := []int{1, 4, 9, 16, 25, 36}; !slices.Equal(got, want) {
			t.Errorf("%s: squares = %v, want %v", tc.name, got, want)
		}
	}
}
