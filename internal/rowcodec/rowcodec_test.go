package rowcodec

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// point is a row type only this test registers.
type point struct {
	X, Y  int
	Tags  []string
	Cells []any
}

var pointCodec = Codec[point]{
	Name: "test.point",
	Enc: func(w *Writer, p point) {
		Int.Enc(w, p.X)
		Int.Enc(w, p.Y)
		SliceOf(String).Enc(w, p.Tags)
		SliceOf(Cell).Enc(w, p.Cells)
	},
	Dec: func(r *Reader) point {
		return point{X: Int.Dec(r), Y: Int.Dec(r), Tags: SliceOf(String).Dec(r), Cells: SliceOf(Cell).Dec(r)}
	},
}

func init() { Register(pointCodec) }

func roundTrip(t *testing.T, rows []Row) []Row {
	t.Helper()
	b, err := Encode(rows)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// The encoding is injective (dynamic types, nil against empty, every
	// float bit), so equal bytes are equal rows even where DeepEqual cannot
	// say so (NaN).
	again, err := Encode(got)
	if err != nil || !bytes.Equal(again, b) {
		t.Fatalf("re-encoding the decoded rows changed the bytes (err=%v)", err)
	}
	return got
}

func TestRoundTripKeepsDynamicTypesAndNilness(t *testing.T) {
	rows := []Row{
		point{X: -1, Y: math.MaxInt64, Tags: nil, Cells: []any{}},
		point{X: math.MinInt64, Tags: []string{}, Cells: nil},
		point{Tags: []string{"", "a", "héllo"}, Cells: []any{nil, true, false, 7, int64(7), 7.0, "7", ""}},
	}
	got := roundTrip(t, rows)
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("got  %#v\nwant %#v", got, rows)
	}
}

func TestRunsOfMixedTypesKeepOrder(t *testing.T) {
	rows := []Row{1, 2, "a", "b", "c", 2.5, 3, point{X: 1}, 4}
	got := roundTrip(t, rows)
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("got %#v", got)
	}
	// One name per run, not per row: 100 more ints cost no more names.
	short, _ := Encode([]Row{1})
	long, _ := Encode(repeat(1, 101))
	if len(long)-len(short) != 100 {
		t.Fatalf("100 extra small ints cost %d bytes, want 100", len(long)-len(short))
	}
}

func repeat(v Row, n int) []Row {
	out := make([]Row, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestFloatBitsSurvive(t *testing.T) {
	payloadNaN := math.Float64frombits(0x7ff8000000abcdef)
	negZero := math.Copysign(0, -1)
	rows := []Row{payloadNaN, negZero, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, point{Cells: []any{payloadNaN, negZero}}}
	got := roundTrip(t, rows)
	if bits := math.Float64bits(got[0].(float64)); bits != 0x7ff8000000abcdef {
		t.Fatalf("NaN payload %#x", bits)
	}
	if !math.Signbit(got[1].(float64)) {
		t.Fatal("-0 lost its sign")
	}
	cells := got[5].(point).Cells
	if math.Float64bits(cells[0].(float64)) != 0x7ff8000000abcdef || !math.Signbit(cells[1].(float64)) {
		t.Fatal("float cell bits changed")
	}
}

func TestDecodedStringsDoNotAliasTheBlob(t *testing.T) {
	b, _ := Encode([]Row{"hello", "world"})
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 'x' // the wire layer reuses its buffers
	}
	if got[0] != "hello" || got[1] != "world" {
		t.Fatalf("decoded strings changed with the blob: %q", got)
	}
}

func TestEmpty(t *testing.T) {
	if b, err := Encode(nil); b != nil || err != nil {
		t.Fatalf("Encode(nil) = %v, %v", b, err)
	}
	if rows, err := Decode(nil); rows != nil || err != nil {
		t.Fatalf("Decode(nil) = %v, %v", rows, err)
	}
}

func TestEncodeRejectsWhatIsNotRegistered(t *testing.T) {
	type stranger struct{ X int }
	for name, rows := range map[string][]Row{
		"row type":     {1, stranger{1}},
		"nil row":      {nil},
		"pointer row":  {&point{}},
		"cell type":    {point{Cells: []any{int32(1)}}},
		"nested slice": {point{Cells: []any{[]any{1}}}},
	} {
		if _, err := Encode(rows); err == nil || !strings.Contains(err.Error(), "unregistered") {
			t.Errorf("%s: err = %v", name, err)
		}
	}
	// A failed encode leaves nothing behind in the pooled buffer.
	if b, err := Encode([]Row{1}); err != nil || len(b) != len("int")+3 {
		t.Fatalf("encode after a failure: %v %v", b, err)
	}
}

func run(name string, count uint64, values ...byte) []byte {
	b := binary.AppendUvarint(nil, uint64(len(name)))
	b = append(b, name...)
	b = binary.AppendUvarint(b, count)
	return append(b, values...)
}

func TestDecodeValidates(t *testing.T) {
	good, _ := Encode([]Row{point{X: 1, Tags: []string{"a"}, Cells: []any{1.5, "s"}}, point{}})
	if _, err := Decode(good); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(good); i++ {
		if _, err := Decode(good[:i]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", i, len(good))
		}
	}
	huge := uint64(1) << 60
	for name, b := range map[string][]byte{
		"trailing byte":       append(append([]byte(nil), good...), 0),
		"unknown name":        run("nope", 1, 0),
		"empty run":           run("int", 0),
		"2^60 rows":           run("int", huge, 2),
		"2^60 strings":        append(run("test.point", 1, 0, 0), binary.AppendUvarint(nil, huge+1)...),
		"2^60 byte string":    append(run("string", 1), binary.AppendUvarint(nil, huge)...),
		"2^60 byte name":      binary.AppendUvarint(nil, huge),
		"unknown cell kind":   run("test.point", 1, 0, 0, 0, 2, 99),
		"overlong uvarint":    run("int", 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"short float":         run("float64", 1, 1, 2, 3),
		"count beyond blob":   run("int", 3, 2, 2),
		"second run unknown":  append(run("int", 1, 2), run("nope", 1, 0)...),
		"second run cut off":  append(run("int", 1, 2), run("string", 1, 5, 'a')...),
		"row count, no rows":  run("float64", 1),
		"name length, no run": {3},
	} {
		rows, err := Decode(b)
		if err == nil {
			t.Errorf("%s: decoded to %v", name, rows)
		}
	}
}

func TestBoolByte(t *testing.T) {
	for b, want := range map[byte]bool{0: false, 1: true} {
		r := Reader{b: []byte{b}}
		if got := r.Bool(); got != want || r.err != nil {
			t.Errorf("Bool(%d) = %v, %v", b, got, r.err)
		}
	}
	r := Reader{b: []byte{2}}
	if r.Bool(); r.err == nil {
		t.Error("bool byte 2 accepted")
	}
}

// A count the process could afford to allocate but the blob cannot hold is
// refused before the row slice is made (2^60 would crash a naive decoder
// outright; 2^24 would merely cost it 256 MB).
func TestOversizedCountFailsBeforeAllocating(t *testing.T) {
	b := run("int", 1<<24, 2, 2, 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Decode(b); err == nil {
		t.Fatal("2^24 rows decoded from 3 bytes")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Fatalf("rejecting the count allocated %d bytes", grew)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("duplicate name", func() { Register(Codec[uint8]{Name: "int"}) })
	mustPanic("duplicate type", func() { Register(Codec[int]{Name: "int2"}) })
	mustPanic("interface type", func() { Register(Cell) })
	if typeNamed([]byte("int2")) != nil {
		t.Error("a refused registration left its name behind")
	}
}
