// Package workload is the cross-process plan identity of the distributed
// data plane. Go closures (the UDFs inside an operation graph) cannot cross
// a socket, so a job travels as a (workload name, params) pair: master and
// worker agents both run the same registered builder, which must construct
// the identical graph deterministically — dataset and monotask IDs are
// assigned densely in construction order, so both sides agree on every ID
// the wire protocol carries by construction. This package also owns the blob
// codec that moves partition contributions between processes: rowcodec for
// the rows.
package workload

import (
	"fmt"
	"sort"
	"sync"

	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/localrt"
	"ursa/internal/rowcodec"
	"ursa/internal/wire"
)

// BuiltJob is one materialized build of a registered workload: the plan,
// its inputs, and the dataset holding the result rows.
type BuiltJob struct {
	// Spec is the scheduler-side job description (master side only; agents
	// ignore it).
	Spec core.JobSpec
	// Plan is the physical plan; IDs are identical wherever the same
	// builder ran with the same params.
	Plan *dag.Plan
	// Inputs are the job-input datasets with their rows: Build materializes
	// them all, Describe leaves generated ones a count and a generator.
	// Builders make inputs deterministically from params, so every process
	// makes its own copy instead of shipping them.
	Inputs []localrt.PlanInput
	// Output is the dataset whose rows are the job's result.
	Output *dag.Dataset
	// Cols optionally names the output columns (SQL workloads).
	Cols []string
	// Finish optionally post-processes the collected output rows (e.g. a
	// query's ORDER BY / LIMIT); nil means identity.
	Finish func(rows []localrt.Row) ([]localrt.Row, error)
}

// BuildFunc builds a workload instance from its encoded params. It must be
// deterministic: same params, same graph, same inputs, in any process. An
// input it declares generated (dataset.Generate) is made where it is read.
type BuildFunc func(params []byte) (*BuiltJob, error)

var (
	regMu    sync.Mutex
	registry = make(map[string]BuildFunc)
)

// Register adds a named builder. Duplicate names panic — the registry is
// populated from package init functions and a collision is a programming
// error.
func Register(name string, build BuildFunc) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("workload: duplicate registration of %q", name))
	}
	registry[name] = build
}

// Build runs the named builder and materializes its generated inputs, for
// callers that read a job's input rows.
func Build(name string, params []byte) (*BuiltJob, error) {
	bj, err := Describe(name, params)
	if err != nil {
		return nil, err
	}
	for i, in := range bj.Inputs {
		if in.Gen != nil {
			bj.Inputs[i] = localrt.PlanInput{Dataset: in.Dataset, Rows: in.Gen(0, 1)}
		}
	}
	return bj, nil
}

// Describe runs the named builder and leaves its generated inputs a row count
// and a partition generator each. The cluster builds jobs this way: the
// master binds the input sizes only, and on an agent each partition is made
// by the monotask that reads it.
func Describe(name string, params []byte) (*BuiltJob, error) {
	regMu.Lock()
	build, ok := registry[name]
	regMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q", name)
	}
	return build(params)
}

// Names lists the registered workloads, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// EncodeRows serializes a row slice for the wire. Every row's dynamic type
// must be registered with rowcodec (builtins do this in init; custom
// workloads call rowcodec.Register for theirs).
func EncodeRows(rows []localrt.Row) ([]byte, error) {
	b, err := rowcodec.Encode(rows)
	if err != nil {
		return nil, fmt.Errorf("workload: encoding rows: %w", err)
	}
	return b, nil
}

// DecodeRows reverses EncodeRows.
func DecodeRows(b []byte) ([]localrt.Row, error) {
	rows, err := rowcodec.Decode(b)
	if err != nil {
		return nil, fmt.Errorf("workload: decoding rows: %w", err)
	}
	return rows, nil
}

// Codec is the data plane's blob codec (localrt.BlobCodec): every blob is the
// rowcodec encoding of its rows, tagged wire.BlobRaw. The tag and the declared
// raw length travel with each blob and are checked on every decode, so a blob
// in any other encoding, or cut short, is an error rather than a misread.
type Codec struct{}

// EncodeBlob implements localrt.BlobCodec.
func (Codec) EncodeBlob(rows []localrt.Row) ([]byte, byte, int, error) {
	raw, err := EncodeRows(rows)
	if err != nil {
		return nil, 0, 0, err
	}
	return raw, wire.BlobRaw, len(raw), nil
}

// DecodeBlob implements localrt.BlobCodec.
func (Codec) DecodeBlob(blob []byte, flags byte, rawLen int) ([]localrt.Row, error) {
	if flags != wire.BlobRaw {
		return nil, fmt.Errorf("workload: unknown blob flags %d", flags)
	}
	if rawLen != len(blob) {
		return nil, fmt.Errorf("workload: raw blob length %d != declared %d", len(blob), rawLen)
	}
	return DecodeRows(blob)
}
