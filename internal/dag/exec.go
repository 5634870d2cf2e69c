package dag

// This file exposes the execution view of a plan: how a monotask maps onto
// UDFs and materialized dataset partitions. The simulator ignores it (it
// runs the cost model instead); the local runtime (internal/localrt) uses it
// to actually execute operation graphs on in-memory data.

// MapKind describes how a monotask's index maps onto an input dataset's
// partitions, mirroring the dependency semantics of §4.1.1.
type MapKind int

const (
	// MapPartition reads the index-aligned partition range (async edges
	// and job inputs).
	MapPartition MapKind = iota
	// MapShard reads this monotask's shard of every partition (the
	// pull-based shuffle of a sync edge).
	MapShard
	// MapBroadcast reads the entire dataset.
	MapBroadcast
)

// ReadRef is one input of an execution step: either a dataset (with its
// mapping) or the output of an earlier step in the same collapsed chain.
type ReadRef struct {
	// Dataset is the input dataset; nil when the read is internal.
	Dataset *Dataset
	// Step is the index of the producing step for internal reads.
	Step int
	// Mapping applies to dataset reads.
	Mapping MapKind
}

// ExecStep is one original op inside a (possibly collapsed) monotask: its
// UDF, inputs, and the datasets it materializes.
type ExecStep struct {
	// UDF is the op's user function (opaque to this package; the local
	// runtime defines its type). Nil means identity.
	UDF     any
	Reads   []ReadRef
	Creates []*Dataset
}

// ExecSteps returns the ordered execution steps of a monotask. For network
// and disk monotasks this is a single data-movement step; for CPU monotasks
// it is the collapsed chain of original ops (§4.1.3).
func (p *Plan) ExecSteps(mt *Monotask) []ExecStep {
	if mt.virtual {
		return nil
	}
	l := mt.lop
	steps := make([]ExecStep, 0, len(l.members))
	for _, m := range l.members {
		step := ExecStep{UDF: m.src.UDF, Creates: m.creates}
		for _, d := range m.extReads {
			step.Reads = append(step.Reads, ReadRef{
				Dataset: d,
				Mapping: l.extMapping(d),
			})
		}
		for _, pi := range m.intReads {
			step.Reads = append(step.Reads, ReadRef{Dataset: nil, Step: pi})
		}
		steps = append(steps, step)
	}
	return steps
}

// PartRange returns the half-open range of partitions of d that monotask
// index idx (out of p parallelism) reads under partition mapping.
func PartRange(d *Dataset, p, idx int) (lo, hi int) {
	if d.Partitions >= p {
		return rangeOf(d.Partitions, p, idx)
	}
	i := idx * d.Partitions / p
	return i, i + 1
}
