package sqlmini_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"ursa/internal/dataset"
	"ursa/internal/localrt"
	"ursa/internal/remote/workload"
	"ursa/internal/sqlmini"
)

type row = []sqlmini.Value

var (
	payloadNaN = math.Float64frombits(0x7ff8000000abcdef)
	negZero    = math.Copysign(0, -1)
)

// wireSamples is one run of rows per registered row type: the scalars and
// Pair[string,int] remote/workload registers, and the six types
// RegisterWireTypes does; plus the merged rows q1's join emits. Only the
// "float bits" sample holds NaNs.
var wireSamples = map[string][]localrt.Row{
	"int":     {0, -1, math.MaxInt64, math.MinInt64},
	"string":  {"", "a", "héllo\x00"},
	"float64": {0.0, 1.5, math.Inf(1), math.Inf(-1), math.MaxFloat64},
	"pair<string,int>": {
		dataset.Pair[string, int]{},
		dataset.Pair[string, int]{Key: "k", Val: -7},
	},
	"row": {
		row(nil), row{},
		row{nil, true, false, "", "s", 3, int64(3), 3.0, -1, int64(math.MinInt64)},
	},
	"agg": {
		sqlmini.AggState{},
		sqlmini.AggState{Sum: 1.5, Count: 2, Min: math.Inf(-1), Max: math.Inf(1), Seen: true},
	},
	"group": {
		sqlmini.GroupRow{},
		sqlmini.GroupRow{Keys: row{}, Aggs: []sqlmini.AggState{}},
		sqlmini.GroupRow{Keys: row{"emea", 4.0}, Aggs: []sqlmini.AggState{{Sum: 3, Count: 1, Min: 3, Max: 3, Seen: true}, {}}},
	},
	"pair<string,row>": {
		dataset.Pair[string, row]{},
		dataset.Pair[string, row]{Key: "7", Val: row{7.0, "amer", 12.25}},
	},
	"pair<string,group>": {
		dataset.Pair[string, sqlmini.GroupRow]{Key: "emea\x00", Val: sqlmini.GroupRow{Keys: row{"emea"}, Aggs: []sqlmini.AggState{{Seen: true}}}},
	},
	"cogrouped": {
		dataset.CoGrouped[string, row, row]{Key: "absent"},
		dataset.CoGrouped[string, row, row]{Key: "empty", Left: []row{}, Right: []row{}},
		dataset.CoGrouped[string, row, row]{Key: "left only", Left: []row{{1.0}, nil, {}}},
		dataset.CoGrouped[string, row, row]{Key: "both", Left: []row{{1.0, "a"}}, Right: []row{{2.0}, {3.0}}},
	},
	"join output": {
		row{7.0, 3.0, "emea", 123.456, 3.0, "gizmos"},
		row{8.0, 3.0, "amer", 61.5, 3.0, "gizmos"},
	},
	"float bits": {
		payloadNaN, negZero,
		row{payloadNaN, negZero},
		sqlmini.AggState{Sum: payloadNaN, Min: negZero},
	},
}

// TestWireRoundTrip round-trips every registered row type through the blob
// codec: rows come back with the same dynamic types down to
// the cell (int, int64 and float64 stay apart), nil slices stay nil and
// empty ones empty, and floats keep every bit.
func TestWireRoundTrip(t *testing.T) {
	var all []localrt.Row // every sample in one contribution, many runs
	for _, rows := range wireSamples {
		all = append(all, rows...)
	}
	for name, rows := range wireSamples {
		got := roundTrip(t, name, rows)
		if name != "float bits" && !reflect.DeepEqual(got, rows) {
			t.Errorf("%s:\n got %#v\nwant %#v", name, got, rows)
		}
	}
	got := roundTrip(t, "float bits", wireSamples["float bits"])
	if math.Float64bits(got[0].(float64)) != math.Float64bits(payloadNaN) || !math.Signbit(got[1].(float64)) {
		t.Errorf("scalar float bits changed: %v", got[:2])
	}
	cells, agg := got[2].(row), got[3].(sqlmini.AggState)
	if math.Float64bits(cells[0].(float64)) != math.Float64bits(payloadNaN) || !math.Signbit(cells[1].(float64)) ||
		math.Float64bits(agg.Sum) != math.Float64bits(payloadNaN) || !math.Signbit(agg.Min) {
		t.Errorf("nested float bits changed: %v %v", cells, agg)
	}
	roundTrip(t, "all", all)
}

// roundTrip encodes, decodes and re-encodes: the encoding is injective, so
// equal bytes mean equal rows even where DeepEqual cannot say so (NaN).
func roundTrip(t *testing.T, name string, rows []localrt.Row) []localrt.Row {
	t.Helper()
	blob, flags, rawLen, err := workload.Codec{}.EncodeBlob(rows)
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	got, err := workload.Codec{}.DecodeBlob(blob, flags, rawLen)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	again, _, _, err := workload.Codec{}.EncodeBlob(got)
	if err != nil || !bytes.Equal(again, blob) {
		t.Fatalf("%s: re-encoding the decoded rows changed the blob (err=%v)", name, err)
	}
	return got
}

func TestUnsupportedCellFailsTheEncode(t *testing.T) {
	_, _, _, err := workload.Codec{}.EncodeBlob([]localrt.Row{row{1.0, uint8(2)}})
	if err == nil {
		t.Fatal("a uint8 cell encoded")
	}
}

// FuzzDecodeBlob feeds the blob decoder what a peer or a spill file could:
// it must return rows or an error, never panic or allocate past the input,
// and whatever decodes must encode again. Seeds: one encoding of every
// registered type, every truncation of the multi-run blob, and that blob
// under the retired DEFLATE tag (1) and with its raw length overstated.
func FuzzDecodeBlob(f *testing.F) {
	var all []localrt.Row
	for _, rows := range wireSamples {
		all = append(all, rows...)
		blob, flags, rawLen, err := workload.Codec{}.EncodeBlob(rows)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob, flags, rawLen)
	}
	blob, flags, rawLen, err := workload.Codec{}.EncodeBlob(all)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < len(blob); i++ {
		f.Add(blob[:i], flags, i)
	}
	f.Add(blob, byte(1), rawLen)
	f.Add(blob, flags, rawLen+1)
	f.Fuzz(func(t *testing.T, blob []byte, flags byte, rawLen int) {
		rows, err := workload.Codec{}.DecodeBlob(blob, flags, rawLen)
		if err != nil {
			return
		}
		if _, _, _, err := (workload.Codec{}).EncodeBlob(rows); err != nil {
			t.Fatalf("decoded rows do not encode: %v", err)
		}
	})
}
