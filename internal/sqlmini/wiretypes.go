package sqlmini

import (
	"sync"

	"ursa/internal/dataset"
	"ursa/internal/rowcodec"
)

// Codecs of the row types a compiled query materializes. A cell is nil,
// bool, int, int64, float64 or string (rowcodec.Cell); a query producing
// any other cell type fails at the first encode.
var (
	rowCodec = rowcodec.SliceOf(rowcodec.Cell)

	aggCodec = rowcodec.Codec[aggState]{
		Name: "sql.agg",
		Enc: func(w *rowcodec.Writer, a aggState) {
			w.Float64(a.Sum)
			w.Float64(a.Count)
			w.Float64(a.Min)
			w.Float64(a.Max)
			w.Bool(a.Seen)
		},
		Dec: func(r *rowcodec.Reader) aggState {
			return aggState{Sum: r.Float64(), Count: r.Float64(), Min: r.Float64(), Max: r.Float64(), Seen: r.Bool()}
		},
	}

	aggsCodec = rowcodec.SliceOf(aggCodec)

	groupCodec = rowcodec.Codec[groupRow]{
		Name: "sql.group",
		Enc: func(w *rowcodec.Writer, g groupRow) {
			rowCodec.Enc(w, g.Keys)
			aggsCodec.Enc(w, g.Aggs)
		},
		Dec: func(r *rowcodec.Reader) groupRow {
			return groupRow{Keys: rowCodec.Dec(r), Aggs: aggsCodec.Dec(r)}
		},
	}
)

var registerOnce sync.Once

// RegisterWireTypes registers every concrete row type a compiled query can
// materialize with the row codec, so query datasets can cross process
// boundaries (the distributed data plane ships partition contributions as
// rowcodec blobs). Both ends of a connection link this package, so the
// registered names agree. Idempotent; call it before encoding or decoding
// query rows.
func RegisterWireTypes() {
	registerOnce.Do(func() {
		rowcodec.Register(rowCodec)
		rowcodec.Register(aggCodec)
		rowcodec.Register(groupCodec)
		rowcodec.Register(dataset.PairCodec(rowcodec.String, rowCodec))
		rowcodec.Register(dataset.PairCodec(rowcodec.String, groupCodec))
		rowcodec.Register(dataset.CoGroupedCodec(rowcodec.String, rowCodec, rowCodec))
	})
}
