package dag

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"ursa/internal/resource"
)

// member is one original op inside a (possibly collapsed) logical op,
// carrying the cost model needed to evaluate per-partition work exactly.
type member struct {
	src       *Op
	extReads  []*Dataset
	intReads  []int // indices of upstream members within the same lop
	intensity float64
	ratio     float64
	fixedOut  float64 // absolute per-monotask output bytes; 0 = use ratio
	creates   []*Dataset
}

// lop is a logical op after CPU-collapse: a simple op, or a connected
// async-CPU subgraph merged into a single CPU op (§4.1.3).
type lop struct {
	id          int
	kind        resource.Kind
	parallelism int
	members     []*member // topologically ordered
	broadcast   bool
	shards      []float64
	m2i         float64
	names       []string
	in          []ledge
	out         []ledge
}

type ledge struct {
	from, to *lop
	kind     DepKind
}

func (l *lop) name() string { return strings.Join(l.names, "+") }

// MTState is a monotask's lifecycle state.
type MTState int

const (
	MTPending MTState = iota // waiting on dependencies
	MTReady                  // dependencies satisfied, input sizes known
	MTRunning
	MTDone
)

func (s MTState) String() string {
	switch s {
	case MTPending:
		return "pending"
	case MTReady:
		return "ready"
	case MTRunning:
		return "running"
	case MTDone:
		return "done"
	}
	return "invalid"
}

// Monotask is a unit of work using a single resource (§1). Input bytes are
// the paper's unified work measure; CPUWork additionally carries the true
// compute cost, which the estimator never sees directly.
type Monotask struct {
	ID    int
	Kind  resource.Kind
	Index int
	Task  *Task
	Ins   []*Monotask
	Outs  []*Monotask

	// virtual marks a synthetic barrier node materializing a sync (or
	// broadcast) dependency: a fully connected bipartite dependency between
	// P producers and Q consumers is represented as P edges into the
	// barrier and Q edges out of it, keeping the monotask graph O(P+Q).
	// Virtual monotasks execute nothing and belong to no task.
	virtual bool

	State      MTState
	pendingIns int
	// InputBytes is the actual input size, known once the monotask is
	// ready (its producers recorded partition sizes in the metadata store).
	InputBytes float64
	// CPUWork is the true compute demand in work-bytes (CPU kind only).
	CPUWork float64
	// EstInput is the JM's estimated input size, filled by Plan.Estimate;
	// workers use it to maintain their per-resource load (APT).
	EstInput float64

	lop  *lop
	outs []output
}

func (m *Monotask) String() string {
	return fmt.Sprintf("mt%d(%s,%s[%d])", m.ID, m.Kind, m.lop.name(), m.Index)
}

// OpName returns the (possibly collapsed) op name this monotask executes.
func (m *Monotask) OpName() string { return m.lop.name() }

// Virtual reports whether the monotask is a synthetic barrier node.
func (m *Monotask) Virtual() bool { return m.virtual }

// Parallelism returns the parallelism of the logical op this monotask
// belongs to: its Index is dense in [0, Parallelism).
func (m *Monotask) Parallelism() int { return m.lop.parallelism }

// RealMonotasks returns the executable (non-barrier) monotasks.
func (p *Plan) RealMonotasks() []*Monotask {
	out := make([]*Monotask, 0, len(p.Monotasks))
	for _, mt := range p.Monotasks {
		if !mt.virtual {
			out = append(out, mt)
		}
	}
	return out
}

// Task is a connected component of monotasks that must be collocated
// (§4.1.3): the subgraph left after removing the in-edges of all network
// monotasks.
type Task struct {
	ID        int
	Stage     *Stage
	Monotasks []*Monotask

	// pendingParents counts unresolved cross-task in-edges of the task's
	// monotasks (barriers count as one edge per consumer). The task is
	// ready when it reaches zero.
	pendingParents int
	doneCount      int
	// order is Monotasks with producers before consumers, fixed at build
	// (Plan.Estimate walks it).
	order []*Monotask

	// Worker is the machine the task was placed on; -1 until assigned.
	Worker int
	// SchedIdx is the task's position within its scheduler pending-pool
	// entry (core.PendingStage bookkeeping enabling O(1) removal); -1 while
	// the task is not pending.
	SchedIdx int
	// EstUsage is the JM's per-resource usage estimate (§4.2.1), filled
	// when the task becomes ready.
	EstUsage resource.Vector
	// InputBytes is the estimated total input I(t) used for memory
	// estimation.
	InputBytes float64
	// MemReserved is the memory reserved on the worker for this task.
	MemReserved float64
	// M2I is the memory-to-input ratio for this task.
	M2I float64
}

// Ready reports whether the task's cross-task dependencies are satisfied.
func (t *Task) Ready() bool { return t.pendingParents == 0 }

// Done reports whether all monotasks of the task completed.
func (t *Task) Done() bool { return t.doneCount == len(t.Monotasks) }

// Stage is the set of tasks generated from the same ops (§4.1.3).
type Stage struct {
	ID    int
	Sig   string
	Tasks []*Task
	lops  []*lop
}

// Name returns a human-readable stage label.
func (s *Stage) Name() string {
	var parts []string
	for _, l := range s.lops {
		parts = append(parts, l.name())
	}
	return strings.Join(parts, "|")
}

// Plan is the physical execution DAG the JM maintains: monotasks, tasks and
// stages with their dependency structure and runtime state.
type Plan struct {
	Graph     *Graph
	Monotasks []*Monotask
	Tasks     []*Task
	Stages    []*Stage
	lops      []*lop
	// chainInternal, indexed by dataset ID, marks the datasets that never
	// leave the monotask creating them (ChainInternal), and taskInternal those
	// that never leave the task (TaskInternal). Fixed at build.
	chainInternal []bool
	taskInternal  []bool

	// tasksDone counts the tasks whose monotasks have all completed. It only
	// grows: ResetForRetry refuses a completed task.
	tasksDone int
	est       estScratch
}

// Build validates the graph, collapses async-connected CPU subgraphs,
// generates monotasks, and derives tasks and stages.
func (g *Graph) Build() (*Plan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{Graph: g}
	p.buildLops()
	p.buildMonotasks()
	p.buildTasks()
	p.buildTaskInternal()
	p.buildStages()
	p.initRuntime()
	return p, nil
}

// ChainInternal reports whether d never leaves the monotask that creates it:
// a later step of its own collapsed chain reads it (in memory, ExecStep's
// internal read), and no monotask reads it as a dataset. A runtime that moves
// contributions between processes never commits it (localrt.ExecRecord), so
// a job's result dataset must not be one.
func (p *Plan) ChainInternal(d *Dataset) bool { return p.chainInternal[d.ID] }

// TaskInternal reports whether d never leaves the task that creates it: some
// monotask reads it as a dataset, and every monotask that does reads only
// partitions written by monotasks of its own task. A runtime that moves
// contributions between processes commits it as rows only: never encoded,
// shipped or checkpointed (localrt.ExecRecord). A dataset nobody reads, such
// as a job's result, is never task-internal.
func (p *Plan) TaskInternal(d *Dataset) bool { return p.taskInternal[d.ID] }

// MustBuild is Build for statically known-good graphs.
func (g *Graph) MustBuild() *Plan {
	p, err := g.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// buildLops groups CPU ops connected by async CPU-CPU edges of equal
// parallelism and produces the logical-op graph.
func (p *Plan) buildLops() {
	g := p.Graph
	parent := make(map[*Op]*Op, len(g.ops))
	var find func(o *Op) *Op
	find = func(o *Op) *Op {
		if parent[o] == o {
			return o
		}
		r := find(parent[o])
		parent[o] = r
		return r
	}
	for _, o := range g.ops {
		parent[o] = o
	}
	for _, o := range g.ops {
		for _, e := range o.out {
			if e.Kind == Async &&
				e.From.Kind == resource.CPU && e.To.Kind == resource.CPU &&
				e.From.effectiveParallelism() == e.To.effectiveParallelism() {
				parent[find(e.From)] = find(e.To)
			}
		}
	}
	groups := make(map[*Op][]*Op)
	for _, o := range g.ops {
		r := find(o)
		groups[r] = append(groups[r], o)
	}
	// Topological order over original ops gives deterministic member order.
	topo := g.topoOrder()
	rank := make(map[*Op]int, len(topo))
	for i, o := range topo {
		rank[o] = i
	}
	lopOf := make(map[*Op]*lop, len(g.ops))
	p.chainInternal = make([]bool, len(g.datasets))
	// Deterministic lop order: by min member rank.
	type grp struct {
		root *Op
		ops  []*Op
		min  int
	}
	var gs []grp
	for r, ops := range groups {
		min := len(topo)
		for _, o := range ops {
			if rank[o] < min {
				min = rank[o]
			}
		}
		gs = append(gs, grp{root: r, ops: ops, min: min})
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i].min < gs[j].min })
	for _, grp := range gs {
		sort.Slice(grp.ops, func(i, j int) bool { return rank[grp.ops[i]] < rank[grp.ops[j]] })
		l := &lop{
			id:          len(p.lops),
			kind:        grp.ops[0].Kind,
			parallelism: grp.ops[0].effectiveParallelism(),
			broadcast:   grp.ops[0].Broadcast,
			shards:      grp.ops[0].Shards,
		}
		memberIdx := make(map[*Op]int, len(grp.ops))
		for _, o := range grp.ops {
			m := &member{
				src:       o,
				intensity: o.ComputeIntensity,
				ratio:     o.OutputRatio,
				creates:   o.creates,
			}
			if o.FixedOutputBytes > 0 {
				m.fixedOut = o.FixedOutputBytes / float64(o.effectiveParallelism())
			}
			// Partition reads into internal (created by a member of this
			// group) and external datasets.
			for _, d := range o.reads {
				if d.Creator != nil {
					if mi, ok := memberIdx[d.Creator]; ok {
						m.intReads = append(m.intReads, mi)
						p.chainInternal[d.ID] = true
						continue
					}
				}
				m.extReads = append(m.extReads, d)
			}
			memberIdx[o] = len(l.members)
			l.members = append(l.members, m)
			l.names = append(l.names, o.Name)
			if o.M2I > l.m2i {
				l.m2i = o.M2I
			}
			lopOf[o] = l
		}
		p.lops = append(p.lops, l)
	}
	for _, l := range p.lops {
		for _, m := range l.members {
			for _, d := range m.extReads {
				p.chainInternal[d.ID] = false
			}
		}
	}
	// Logical edges between distinct lops; sync dominates duplicates.
	type lkey struct{ from, to *lop }
	kinds := make(map[lkey]DepKind)
	var order []lkey
	for _, o := range topo {
		for _, e := range o.out {
			lf, lt := lopOf[e.From], lopOf[e.To]
			if lf == lt {
				continue
			}
			k := lkey{lf, lt}
			old, ok := kinds[k]
			if !ok {
				kinds[k] = e.Kind
				order = append(order, k)
			} else if e.Kind == Sync && old == Async {
				kinds[k] = Sync
			}
		}
	}
	for _, k := range order {
		le := ledge{from: k.from, to: k.to, kind: kinds[k]}
		k.from.out = append(k.from.out, le)
		k.to.in = append(k.to.in, le)
	}
}

func (g *Graph) topoOrder() []*Op {
	indeg := make(map[*Op]int, len(g.ops))
	for _, o := range g.ops {
		indeg[o] = len(o.in)
	}
	var queue, out []*Op
	for _, o := range g.ops {
		if indeg[o] == 0 {
			queue = append(queue, o)
		}
	}
	for len(queue) > 0 {
		o := queue[0]
		queue = queue[1:]
		out = append(out, o)
		for _, e := range o.out {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	return out
}

// rangeOf maps target index j over toParts to the half-open range of source
// indices over fromParts feeding it, guaranteeing a non-empty range.
func rangeOf(fromParts, toParts, j int) (lo, hi int) {
	lo = j * fromParts / toParts
	hi = (j + 1) * fromParts / toParts
	if hi <= lo {
		hi = lo + 1
	}
	return lo, hi
}

func (p *Plan) buildMonotasks() {
	mts := make(map[*lop][]*Monotask, len(p.lops))
	for _, l := range p.lops {
		row := make([]*Monotask, l.parallelism)
		for i := range row {
			mt := &Monotask{
				ID:    len(p.Monotasks),
				Kind:  l.kind,
				Index: i,
				lop:   l,
				State: MTPending,
			}
			p.Monotasks = append(p.Monotasks, mt)
			row[i] = mt
		}
		mts[l] = row
	}
	link := func(a, b *Monotask) {
		a.Outs = append(a.Outs, b)
		b.Ins = append(b.Ins, a)
	}
	for _, l := range p.lops {
		for _, e := range l.out {
			from, to := mts[e.from], mts[e.to]
			switch {
			case e.kind == Sync || e.to.broadcast:
				// Fully connected bipartite dependency (Figure 3),
				// materialized through a virtual barrier node.
				barrier := &Monotask{
					ID:      len(p.Monotasks),
					Kind:    e.from.kind,
					Index:   0,
					lop:     e.from,
					State:   MTPending,
					virtual: true,
				}
				p.Monotasks = append(p.Monotasks, barrier)
				for _, a := range from {
					link(a, barrier)
				}
				for _, b := range to {
					link(barrier, b)
				}
			default: // Async: proportional one-to-one (Figure 3).
				for j, b := range to {
					lo, hi := rangeOf(len(from), len(to), j)
					for i := lo; i < hi && i < len(from); i++ {
						link(from[i], b)
					}
				}
			}
		}
	}
}

// buildTasks forms tasks as connected components after removing the
// in-edges of network monotasks (§4.1.3). Virtual barriers belong to no
// task and never join components.
func (p *Plan) buildTasks() {
	parent := make([]int, len(p.Monotasks))
	for i := range parent {
		parent[i] = i
	}
	var find func(i int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for _, mt := range p.Monotasks {
		if mt.virtual {
			continue
		}
		for _, out := range mt.Outs {
			if out.Kind == resource.Net || out.virtual {
				continue // the removed in-edges / barrier hops
			}
			parent[find(mt.ID)] = find(out.ID)
		}
	}
	taskOf := make(map[int]*Task)
	for _, mt := range p.Monotasks {
		if mt.virtual {
			continue
		}
		root := find(mt.ID)
		t, ok := taskOf[root]
		if !ok {
			t = &Task{ID: len(p.Tasks), Worker: -1, SchedIdx: -1}
			taskOf[root] = t
			p.Tasks = append(p.Tasks, t)
		}
		mt.Task = t
		t.Monotasks = append(t.Monotasks, mt)
	}
	// Order every task's monotasks topologically (Kahn, seeded and extended in
	// Monotasks order), all tasks sharing one backing array: the output doubles
	// as the FIFO queue, and indeg, indexed by monotask ID, takes over the
	// union-find array, which is dead by now.
	indeg := parent
	clear(indeg)
	all := make([]*Monotask, 0, len(p.Monotasks))
	for _, t := range p.Tasks {
		start := len(all)
		for _, mt := range t.Monotasks {
			for _, in := range mt.Ins {
				if in.Task == t {
					indeg[mt.ID]++
				}
			}
		}
		for _, mt := range t.Monotasks {
			if indeg[mt.ID] == 0 {
				all = append(all, mt)
			}
		}
		for i := start; i < len(all); i++ {
			for _, next := range all[i].Outs {
				if next.Task != t {
					continue
				}
				indeg[next.ID]--
				if indeg[next.ID] == 0 {
					all = append(all, next)
				}
			}
		}
		t.order = all[start:len(all):len(all)]
	}
}

// buildTaskInternal computes TaskInternal for every dataset. A creator
// monotask of index i writes PartRange(d, P, i) of its dataset (localrt's
// splitWrite), so owner[part] is the task of the partition's writers, or nil
// when they span tasks; a reader then stays inside the task iff every
// partition it reads is owned by its own task. Linear in partitions and
// monotasks.
func (p *Plan) buildTaskInternal() {
	p.taskInternal = make([]bool, len(p.Graph.datasets))
	rows := make([][]*Monotask, len(p.lops))
	for _, l := range p.lops {
		rows[l.id] = make([]*Monotask, l.parallelism)
	}
	for _, mt := range p.Monotasks {
		if !mt.virtual {
			rows[mt.lop.id][mt.Index] = mt
		}
	}
	creator := make(map[*Dataset]*lop)
	for _, l := range p.lops {
		for _, m := range l.members {
			for _, d := range m.creates {
				creator[d] = l
			}
		}
	}
	for _, d := range p.Graph.datasets {
		cl := creator[d]
		if cl == nil || p.chainInternal[d.ID] || d.Partitions == 0 {
			continue
		}
		owner := make([]*Task, d.Partitions)
		owned := make([]bool, d.Partitions)
		for _, w := range rows[cl.id] {
			lo, hi := PartRange(d, cl.parallelism, w.Index)
			for part := lo; part < hi; part++ {
				if !owned[part] {
					owner[part], owned[part] = w.Task, true
				} else if owner[part] != w.Task {
					owner[part] = nil
				}
			}
		}
		// sole is the one task owning every partition, or nil.
		sole := owner[0]
		for _, t := range owner {
			if t != sole {
				sole = nil
				break
			}
		}
		internal, read := true, false
		for _, l := range p.lops {
			for _, m := range l.members {
				if !slices.Contains(m.extReads, d) {
					continue
				}
				read = true
				whole := l.extMapping(d) != MapPartition
				for _, r := range rows[l.id] {
					if whole {
						internal = internal && sole == r.Task
						continue
					}
					lo, hi := PartRange(d, l.parallelism, r.Index)
					for part := lo; part < hi; part++ {
						internal = internal && owner[part] == r.Task
					}
				}
			}
		}
		p.taskInternal[d.ID] = read && internal
	}
}

// buildStages groups tasks by the set of lops they contain.
func (p *Plan) buildStages() {
	bySig := make(map[string]*Stage)
	for _, t := range p.Tasks {
		ids := map[int]bool{}
		for _, mt := range t.Monotasks {
			ids[mt.lop.id] = true
		}
		var sorted []int
		for id := range ids {
			sorted = append(sorted, id)
		}
		sort.Ints(sorted)
		var sb strings.Builder
		for _, id := range sorted {
			fmt.Fprintf(&sb, "%d,", id)
		}
		sig := sb.String()
		s, ok := bySig[sig]
		if !ok {
			s = &Stage{ID: len(p.Stages), Sig: sig}
			for _, id := range sorted {
				s.lops = append(s.lops, p.lops[id])
			}
			bySig[sig] = s
			p.Stages = append(p.Stages, s)
		}
		t.Stage = s
		s.Tasks = append(s.Tasks, t)
	}
}

func (p *Plan) initRuntime() {
	for _, t := range p.Tasks {
		if t.Done() { // no monotasks: done from the start
			p.tasksDone++
		}
	}
	for _, mt := range p.Monotasks {
		mt.pendingIns = len(mt.Ins)
		if mt.virtual {
			continue
		}
		// Cross-task in-edges (including barrier hops) gate task readiness.
		for _, in := range mt.Ins {
			if in.virtual || in.Task != mt.Task {
				mt.Task.pendingParents++
			}
		}
	}
}
