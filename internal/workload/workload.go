// Package workload synthesizes the paper's evaluation workloads (§5) as
// operation graphs: TPC-H and TPC-DS query mixes, the harder TPC-H2 subset,
// iterative machine-learning and graph-analytics jobs, the Mixed workload,
// and the synthetic Type-1/Type-2 jobs of §5.3. Templates are statistical:
// they are calibrated to the published DAG depths, solo JCTs and resource
// mixes rather than to the (unavailable) datasets.
package workload

import (
	"math/rand"

	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/eventloop"
	"ursa/internal/resource"
)

// Submission pairs a job spec with its submission time.
type Submission struct {
	Spec core.JobSpec
	At   eventloop.Time
}

// Workload is an ordered set of job submissions.
type Workload struct {
	Name string
	Jobs []Submission
}

// Single wraps one job spec as a workload submitted at time zero.
func Single(spec core.JobSpec) *Workload {
	return &Workload{Name: spec.Name, Jobs: []Submission{{Spec: spec}}}
}

// partitionBytes is the target partition size; parallelism of a stage is its
// input divided by this, clamped to the cluster's sane range.
const partitionBytes = 128e6

// parts computes a stage's parallelism for a given input size.
func parts(input float64) int {
	p := int(input / partitionBytes)
	if p < 4 {
		p = 4
	}
	if p > 640 {
		p = 640
	}
	return p
}

// stageSpec describes one CPU stage and the shuffle feeding the next.
type stageSpec struct {
	// intensity is CPU work per input byte.
	intensity float64
	// ratio is output bytes per input byte (the shuffle volume).
	ratio float64
	// skew, if > 1, makes shuffle shard sizes Zipf-like with this factor
	// between the largest and mean shard.
	skew float64
	// broadcastJoin adds a broadcast of a small side table into this stage.
	broadcastJoin bool
}

// chainSpec describes a linear pipeline of stages over an input.
type chainSpec struct {
	input  float64
	stages []stageSpec
	// finalWriteRatio, if > 0, appends a disk write of that fraction of
	// the last stage's output.
	finalWriteRatio float64
}

// buildChain constructs the OpGraph for a chain: cpu -sync-> net -async->
// cpu ... with optional broadcast side inputs and final disk write.
func buildChain(rng *rand.Rand, spec chainSpec) *dag.Graph {
	g := dag.NewGraph()
	in := g.CreateData(parts(spec.input))
	in.SetUniformInput(spec.input)
	cur := in
	curBytes := spec.input
	var prevOp *dag.Op
	for i, st := range spec.stages {
		p := parts(curBytes)
		outBytes := curBytes * st.ratio
		cpuOut := g.CreateData(p)
		cpu := g.CreateOp(resource.CPU, stageName("stage", i)).Read(cur).Create(cpuOut)
		cpu.ComputeIntensity = st.intensity
		cpu.OutputRatio = st.ratio
		if prevOp != nil {
			prevOp.To(cpu, dag.Async)
		}
		if st.broadcastJoin {
			side := g.CreateData(4)
			side.SetUniformInput(32e6) // small dimension table
			bcOut := g.CreateData(p)
			bc := g.CreateOp(resource.Net, stageName("bcast", i)).Read(side).Create(bcOut)
			bc.Broadcast = true
			bc.Parallelism = p
			bc.To(cpu, dag.Async)
			cpu.Read(bcOut)
		}
		last := i == len(spec.stages)-1
		if last {
			prevOp = cpu
			curBytes = outBytes
			cur = cpuOut
			break
		}
		np := parts(outBytes)
		shOut := g.CreateData(np)
		sh := g.CreateOp(resource.Net, stageName("shuffle", i)).Read(cpuOut).Create(shOut)
		if st.skew > 1 {
			sh.Shards = skewShards(rng, np, st.skew)
		}
		cpu.To(sh, dag.Sync)
		prevOp = sh
		cur = shOut
		curBytes = outBytes
	}
	if spec.finalWriteRatio > 0 {
		sink := g.CreateData(cur.Partitions)
		wr := g.CreateOp(resource.Disk, "write").Read(cur).Create(sink)
		wr.OutputRatio = spec.finalWriteRatio
		prevOp.To(wr, dag.Async)
	}
	return g
}

func stageName(prefix string, i int) string {
	return prefix + "-" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// skewShards draws shard fractions whose max/mean ratio is about `skew`,
// normalized to sum to 1 — modelling skewed intermediate key distributions
// (§2: "tasks working on data with different skewness").
func skewShards(rng *rand.Rand, n int, skew float64) []float64 {
	out := make([]float64, n)
	var sum float64
	for i := range out {
		v := 1 + rng.ExpFloat64()*(skew-1)/2
		out[i] = v
		sum += v
	}
	// A few heavy shards.
	heavy := n / 16
	if heavy < 1 {
		heavy = 1
	}
	for h := 0; h < heavy; h++ {
		i := rng.Intn(n)
		sum -= out[i]
		out[i] *= skew
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// memEstimate models a user's conservative container-memory request: a
// multiple of the job input, at least a floor.
func memEstimate(input float64, factor float64) float64 {
	m := input * factor
	if m < 4e9 {
		m = 4e9
	}
	return m
}
