// Package workload is the cross-process plan identity of the distributed
// data plane. Go closures (the UDFs inside an operation graph) cannot cross
// a socket, so a job travels as a (workload name, params) pair: master and
// worker agents both run the same registered builder, which must construct
// the identical graph deterministically — dataset and monotask IDs are
// assigned densely in construction order, so both sides agree on every ID
// the wire protocol carries by construction. This package also owns the blob
// codec that moves partition contributions between processes: rowcodec for
// the rows, optionally DEFLATE around it.
package workload

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
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
	// Inputs are the job-input datasets with their materialized rows.
	// Builders generate inputs deterministically from params, so every
	// process seeds its own copy instead of shipping them.
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
// deterministic: same params, same graph, same inputs, in any process.
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

// Build runs the named builder.
func Build(name string, params []byte) (*BuiltJob, error) {
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

// compressMin is the smallest raw encoding worth compressing: below it the
// DEFLATE header overhead exceeds any plausible saving.
const compressMin = 64

// Codec is the data plane's blob codec (localrt.BlobCodec): rowcodec for the
// row encoding, optionally DEFLATE per contribution. Compression is advisory —
// a compressed blob is kept only when strictly smaller than the raw
// encoding, and the flags byte travels with the blob, so either setting
// decodes blobs from anywhere.
type Codec struct {
	// Compress enables per-contribution DEFLATE (the negotiated outcome of
	// Register/Welcome, or the master's own flag for its canonical store).
	Compress bool
}

// EncodeBlob implements localrt.BlobCodec.
func (c Codec) EncodeBlob(rows []localrt.Row) ([]byte, byte, int, error) {
	raw, err := EncodeRows(rows)
	if err != nil {
		return nil, 0, 0, err
	}
	if !c.Compress || len(raw) < compressMin {
		return raw, wire.BlobRaw, len(raw), nil
	}
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("workload: flate init: %w", err)
	}
	if _, err := zw.Write(raw); err != nil {
		return nil, 0, 0, fmt.Errorf("workload: compressing rows: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, 0, 0, fmt.Errorf("workload: compressing rows: %w", err)
	}
	if buf.Len() >= len(raw) {
		// Incompressible payload: ship raw, honestly flagged.
		return raw, wire.BlobRaw, len(raw), nil
	}
	return buf.Bytes(), wire.BlobDeflate, len(raw), nil
}

// DecodeBlob implements localrt.BlobCodec. rawLen bounds decompression: a
// blob claiming rawLen but inflating past it (a decompression bomb, or
// corruption) is rejected rather than ballooning memory.
func (c Codec) DecodeBlob(blob []byte, flags byte, rawLen int) ([]localrt.Row, error) {
	switch flags {
	case wire.BlobRaw:
		if rawLen != len(blob) {
			return nil, fmt.Errorf("workload: raw blob length %d != declared %d", len(blob), rawLen)
		}
		return DecodeRows(blob)
	case wire.BlobDeflate:
		zr := flate.NewReader(bytes.NewReader(blob))
		defer zr.Close()
		var buf bytes.Buffer
		n, err := io.Copy(&buf, io.LimitReader(zr, int64(rawLen)+1))
		if err != nil {
			return nil, fmt.Errorf("workload: decompressing rows: %w", err)
		}
		if n != int64(rawLen) {
			return nil, fmt.Errorf("workload: blob inflates to %d bytes, declared %d", n, rawLen)
		}
		return DecodeRows(buf.Bytes())
	default:
		return nil, fmt.Errorf("workload: unknown blob flags %d", flags)
	}
}
