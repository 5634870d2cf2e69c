package dag_test

// Plan.Estimate against the implementation it replaced (dag.EstimateReference,
// export_test.go), bit for bit, on the plans the simulator actually estimates.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/eventloop"
	"ursa/internal/resource"
	"ursa/internal/workload"
)

// unevenGraph is one task whose ops and datasets disagree on partition counts
// in every direction the shipped workloads never do (their reads and writes
// are all index-aligned, sharded or broadcast): a reads and writes more
// partitions than it has monotasks (each writes a run of four predictions), b
// reads those runs back and both its monotasks accumulate into the one
// partition of m2, c reads that sum, d's four monotasks split c's one output.
func unevenGraph() *dag.Graph {
	g := dag.NewGraph()
	in := g.CreateData(8)
	in.SetInput([]float64{10, 20, 30, 40, 50, 60, 70, 80})
	m1, m2, m3, m4 := g.CreateData(8), g.CreateData(1), g.CreateData(1), g.CreateData(4)
	a := g.CreateOp(resource.CPU, "a").Read(in).Create(m1)
	a.Parallelism, a.OutputRatio = 2, 0.7
	b := g.CreateOp(resource.Disk, "b").Read(m1).Create(m2)
	b.Parallelism, b.OutputRatio = 2, 1
	c := g.CreateOp(resource.CPU, "c").Read(m2).Create(m3)
	c.Parallelism, c.OutputRatio = 1, 0.3
	d := g.CreateOp(resource.Disk, "d").Read(m3).Create(m4)
	d.Parallelism, d.OutputRatio = 4, 1
	a.To(b, dag.Async)
	b.To(c, dag.Async)
	c.To(d, dag.Async)
	return g
}

// estimateBits is everything Estimate writes, as bit patterns.
func estimateBits(t *dag.Task) []uint64 {
	bits := []uint64{math.Float64bits(t.InputBytes), math.Float64bits(t.M2I)}
	for _, v := range t.EstUsage {
		bits = append(bits, math.Float64bits(v))
	}
	for _, mt := range t.Monotasks {
		bits = append(bits, math.Float64bits(mt.EstInput))
	}
	return bits
}

// requireEstimatesMatch estimates every task of p both ways.
func requireEstimatesMatch(t *testing.T, name string, p *dag.Plan) {
	t.Helper()
	for _, task := range p.Tasks {
		p.Estimate(task, 1.5)
		got := estimateBits(task)
		dag.EstimateReference(p, task, 1.5)
		if want := estimateBits(task); !slices.Equal(got, want) {
			t.Fatalf("%s task %d: Estimate wrote %x, the reference %x (input, m2i, usage[4], EstInput per monotask)",
				name, task.ID, got, want)
		}
	}
}

func TestEstimateMatchesReference(t *testing.T) {
	type named struct {
		name string
		g    *dag.Graph
	}
	graphs := []named{{"uneven", unevenGraph()}}
	for _, w := range []*workload.Workload{
		workload.TPCH(10, 5*eventloop.Second, 1), workload.TPCDS(10, 5*eventloop.Second, 1), workload.Mixed(1),
	} {
		for i, s := range w.Jobs {
			graphs = append(graphs, named{fmt.Sprintf("%s job %d (%s)", w.Name, i, s.Spec.Name), s.Spec.Graph})
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		graphs = append(graphs, named{fmt.Sprintf("random graph %d", i), dag.RandomGraph(rng)})
	}
	for _, n := range graphs {
		p := n.g.MustBuild()
		requireEstimatesMatch(t, n.name+", before anything ran", p)
		dag.RunSteps(p, len(p.RealMonotasks())/2)
		requireEstimatesMatch(t, n.name+", half run", p)
	}
}
