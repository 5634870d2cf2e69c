// BENCH_wire.json: the shuffle data plane's performance snapshot. The
// scenarios pin the tentpole claims of the zero-copy data plane — serving a
// partition from the encode-once blob store is a copy, not a marshal; the
// pooled frame path runs allocation-free at steady state; spilled
// partitions stream from disk at disk-like rates — against the
// encode-per-fetch baseline the store replaced, reproduced here as what it
// was (one codec call per contribution per serve) so the ratio stays
// measurable on any machine.
//
//	go run ./cmd/ursa-bench -wire BENCH_wire.json
//	go run ./cmd/ursa-bench -guard-wire BENCH_wire.json
package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/dataset"
	"ursa/internal/localrt"
	"ursa/internal/remote/shuffle"
	"ursa/internal/remote/workload"
	"ursa/internal/resource"
)

// Wire scenario shape: one partition holding wireContribs contributions of
// wireRowsPer rows each — a mid-sized shuffle partition, large enough that
// the marshal cost dominates the legacy path and small enough that one serve
// fits a benchmark op.
const (
	wireContribs = 16
	wireRowsPer  = 256
)

// WireReport is the BENCH_wire.json document.
type WireReport struct {
	Schema    string `json:"schema"`
	Command   string `json:"command"`
	GoVersion string `json:"go_version"`

	// EncodeOnceServe is one full partition serve from the encode-once store:
	// resolving every contribution to its cached pre-encoded bytes
	// (Runtime.PartBlobsAppend), the work the shuffle server does per fetch
	// before copying bytes to the socket. Steady state must not allocate.
	EncodeOnceServe Benchmark `json:"encode_once_serve"`
	// LegacyServe is the same partition served the pre-encode-once way:
	// every fetch re-marshals every contribution's rows, here by
	// calling the codec directly. The EncodeOnceServe speedup ratio over
	// this is the tentpole acceptance number (≥3×).
	LegacyServe Benchmark `json:"legacy_serve"`
	// FetchRoundTrip is a complete client fetch of the partition over
	// loopback TCP through the pooled frame path: request encode, server
	// serve, response decode into the client's retained buffer.
	FetchRoundTrip Benchmark `json:"fetch_round_trip"`
	// SpillServe reads the whole partition back from a spill file in
	// streaming chunks — the disk path a larger-than-memory partition takes.
	SpillServe Benchmark `json:"spill_serve"`
}

// wireRows builds one contribution's rows.
func wireRows(contrib int) []localrt.Row {
	rows := make([]localrt.Row, wireRowsPer)
	for i := range rows {
		rows[i] = dataset.Pair[string, int]{
			Key: fmt.Sprintf("key-%02d-%04d", contrib, i),
			Val: contrib*wireRowsPer + i,
		}
	}
	return rows
}

// wireStore builds a runtime whose dataset's partition 0 holds the scenario
// contributions, pre-encoded as a producer commits them. Returns the store,
// the dataset, and the partition's total encoded bytes.
func wireStore() (*localrt.Runtime, *dag.Dataset, int) {
	g := dag.NewGraph()
	d := g.CreateData(1)
	out := g.CreateData(1)
	op := g.CreateOp(resource.CPU, "sink").Read(d).Create(out)
	op.SetUDF(localrt.UDF(func(ins [][]localrt.Row) []localrt.Row { return ins[0] }))
	rt := localrt.New(g.MustBuild())
	rt.SetCodec(workload.Codec{})
	total := 0
	for c := 0; c < wireContribs; c++ {
		blob, flags, rawLen, err := (workload.Codec{}).EncodeBlob(wireRows(c))
		if err != nil {
			panic(err)
		}
		total += len(blob)
		rt.InsertEncoded(d, 0, c, blob, flags, rawLen)
	}
	return rt, d, total
}

// legacyServeBench measures what a serve cost before the encode-once store:
// marshalling every contribution's rows on every fetch.
func legacyServeBench() func(b *testing.B) {
	contribs := make([][]localrt.Row, wireContribs)
	for c := range contribs {
		contribs[c] = wireRows(c)
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, rows := range contribs {
				if _, _, _, err := (workload.Codec{}).EncodeBlob(rows); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// serveBench measures PartBlobsAppend over the scenario partition.
func serveBench(rt *localrt.Runtime, d *dag.Dataset) func(b *testing.B) {
	return func(b *testing.B) {
		var refs []localrt.BlobRef
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			refs, err = rt.PartBlobsAppend(refs[:0], d, 0)
			if err != nil {
				b.Fatal(err)
			}
			if len(refs) != wireContribs {
				b.Fatalf("served %d contribs", len(refs))
			}
		}
	}
}

// withBytes derives the byte rate from the scenario's per-op payload.
func withBytes(m Benchmark, bytesPerOp int) Benchmark {
	if m.NsPerOp > 0 {
		m.BytesPerSec = float64(bytesPerOp) * 1e9 / m.NsPerOp
	}
	return m
}

// bestOf re-measures a scenario n times and keeps the fastest run. The
// encode-once serve is a ~200 ns op, where a scheduling stall inflates a
// single measurement by tens of percent; the minimum is the run least
// disturbed by the machine, and a real regression shifts the minimum too.
// Both the checked-in snapshot and the guard's fresh measurement go through
// this, so the regression comparison is min-vs-min.
func bestOf(n int, fn func(b *testing.B), opsPerIter float64, unit string) Benchmark {
	best := measure(fn, opsPerIter, unit)
	for i := 1; i < n; i++ {
		if m := measure(fn, opsPerIter, unit); m.NsPerOp < best.NsPerOp {
			best = m
		}
	}
	return best
}

// MeasureWireServe measures the encode-once serve and the legacy
// encode-per-fetch baseline — the pair the wire bench guard compares, kept
// separate from CollectWire so the guard doesn't pay for the full report.
func MeasureWireServe() (encodeOnce, legacy Benchmark) {
	initTesting.Do(testing.Init)
	rowsPerOp := float64(wireContribs * wireRowsPer)

	rt, d, bytes := wireStore()
	defer rt.Close()
	encodeOnce = withBytes(bestOf(3, serveBench(rt, d), rowsPerOp, "rows/s"), bytes)
	legacy = withBytes(measure(legacyServeBench(), rowsPerOp, "rows/s"), bytes)
	return encodeOnce, legacy
}

// CollectWire runs every wire scenario and assembles the report.
func CollectWire() (*WireReport, error) {
	initTesting.Do(testing.Init)
	rep := &WireReport{
		Schema:    "ursa-bench-wire/v1",
		Command:   "go run ./cmd/ursa-bench -wire BENCH_wire.json",
		GoVersion: runtime.Version(),
	}
	rowsPerOp := float64(wireContribs * wireRowsPer)
	rep.EncodeOnceServe, rep.LegacyServe = MeasureWireServe()

	// Full fetch over loopback through the pooled frame path.
	rt, d, bytes := wireStore()
	defer rt.Close()
	srv, err := shuffle.Listen("127.0.0.1:0", shuffle.ServerConfig{},
		func(int64) *localrt.Runtime { return rt }, nil)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	cl := shuffle.NewClient(srv.Addr(), shuffle.ClientConfig{Retries: -1})
	defer cl.Close()
	rep.FetchRoundTrip = withBytes(measure(func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wireBytes, _, _, err := cl.FetchFunc(1, int32(d.ID), 0, 0, nil)
			if err != nil {
				b.Fatal(err)
			}
			if int(wireBytes) != bytes {
				b.Fatalf("fetched %v bytes, want %d", wireBytes, bytes)
			}
		}
	}, rowsPerOp, "rows/s"), bytes)

	// Spilled partition, read back in streaming chunks.
	dir, err := os.MkdirTemp("", "ursa-bench-spill-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	g := dag.NewGraph()
	sd := g.CreateData(1)
	out := g.CreateData(1)
	op := g.CreateOp(resource.CPU, "sink").Read(sd).Create(out)
	op.SetUDF(localrt.UDF(func(ins [][]localrt.Row) []localrt.Row { return ins[0] }))
	srt := localrt.New(g.MustBuild())
	defer srt.Close()
	srt.SetCodec(workload.Codec{})
	srt.SetSpill(1, dir) // spill everything
	spillBytes := 0
	for c := 0; c < wireContribs; c++ {
		blob, flags, rawLen, err := (workload.Codec{}).EncodeBlob(wireRows(c))
		if err != nil {
			return nil, err
		}
		spillBytes += len(blob)
		srt.InsertEncoded(sd, 0, c, blob, flags, rawLen)
	}
	if err := srt.SpillErr(); err != nil {
		return nil, err
	}
	rep.SpillServe = withBytes(measure(func(b *testing.B) {
		var refs []localrt.BlobRef
		chunk := make([]byte, 64<<10)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			refs, err = srt.PartBlobsAppend(refs[:0], sd, 0)
			if err != nil {
				b.Fatal(err)
			}
			for r := range refs {
				ref := &refs[r]
				if ref.InMemory() {
					b.Fatal("contribution did not spill")
				}
				for off := 0; off < ref.Len; {
					n := ref.Len - off
					if n > len(chunk) {
						n = len(chunk)
					}
					if _, err := ref.ReadAt(chunk[:n], int64(off)); err != nil {
						b.Fatal(err)
					}
					off += n
				}
			}
		}
	}, rowsPerOp, "rows/s"), spillBytes)
	return rep, nil
}

// LoadWire parses a BENCH_wire.json document.
func LoadWire(r io.Reader) (*WireReport, error) {
	rep := &WireReport{}
	if err := json.NewDecoder(r).Decode(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// WriteJSON renders the report for checking in.
func (r *WireReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
