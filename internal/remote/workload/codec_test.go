package workload

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ursa/internal/dataset"
	"ursa/internal/localrt"
	"ursa/internal/sqlmini"
	"ursa/internal/wire"
)

var _ localrt.BlobCodec = Codec{}

func pairRows(n int) []localrt.Row {
	rows := make([]localrt.Row, n)
	for i := range rows {
		rows[i] = dataset.Pair[string, int]{
			Key: fmt.Sprintf("key-%04d", i%7),
			Val: i,
		}
	}
	return rows
}

func TestCodecRawRoundTrip(t *testing.T) {
	rows := pairRows(50)
	blob, flags, rawLen, err := Codec{}.EncodeBlob(rows)
	if err != nil {
		t.Fatal(err)
	}
	if flags != wire.BlobRaw || rawLen != len(blob) {
		t.Fatalf("flags=%d rawLen=%d len=%d", flags, rawLen, len(blob))
	}
	got, err := Codec{}.DecodeBlob(blob, flags, rawLen)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatal("raw round trip mismatch")
	}
	// The blob must equal the legacy encoding byte-for-byte: encode-once
	// serves exactly what encode-per-fetch used to produce.
	legacy, err := EncodeRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, legacy) {
		t.Fatal("raw blob differs from legacy EncodeRows bytes")
	}
}

func TestCodecDecodeRejectsBadDeclarations(t *testing.T) {
	raw, _, n, err := Codec{}.EncodeBlob(pairRows(100))
	if err != nil {
		t.Fatal(err)
	}
	// One stored DEFLATE block around the same bytes: a blob in the retired
	// compressed encoding (tag 1) that inflates back to raw exactly. It is
	// corrupt input now, like any other tag.
	deflated := append([]byte{1, byte(n), byte(n >> 8), ^byte(n), ^byte(n >> 8)}, raw...)
	for _, tc := range []struct {
		name   string
		blob   []byte
		flags  byte
		rawLen int
	}{
		{"overstated raw length", raw, wire.BlobRaw, n + 1},
		{"understated raw length", raw, wire.BlobRaw, n - 1},
		{"unknown flags", raw, 99, n},
		{"DEFLATE tag", deflated, 1, n},
	} {
		if _, err := (Codec{}).DecodeBlob(tc.blob, tc.flags, tc.rawLen); err == nil {
			t.Errorf("%s: decoded, want an error", tc.name)
		}
	}
}

func TestCodecEmptyRows(t *testing.T) {
	blob, flags, rawLen, err := Codec{}.EncodeBlob(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != 0 || flags != wire.BlobRaw || rawLen != 0 {
		t.Fatalf("empty encode: blob=%d flags=%d rawLen=%d", len(blob), flags, rawLen)
	}
	got, err := Codec{}.DecodeBlob(blob, flags, rawLen)
	if err != nil || got != nil {
		t.Fatalf("empty decode: %v %v", got, err)
	}
}

func TestCodecErrorMentionsWorkload(t *testing.T) {
	// Unregistered row types must error cleanly, not panic.
	type unregistered struct{ X int }
	_, _, _, err := Codec{}.EncodeBlob([]localrt.Row{unregistered{1}})
	if err == nil || !strings.Contains(err.Error(), "workload") {
		t.Fatalf("err = %v", err)
	}
}

// sqlRows is one shuffle contribution of the sql_analytics join: sales rows
// keyed as execJoin keys them.
func sqlRows(n int) []localrt.Row {
	rows := make([]localrt.Row, n)
	for i, r := range salesTable(n).Gen(0, 1) {
		rows[i] = dataset.Pair[string, []sqlmini.Value]{Key: fmt.Sprintf("%v", r[1]), Val: r}
	}
	return rows
}

var benchSink any

// BenchmarkCodec times the row codec alone on the two row shapes the builtin
// workloads shuffle most of: go test -run '^$' -bench Codec -benchmem
// ./internal/remote/workload.
func BenchmarkCodec(b *testing.B) {
	for _, shape := range []struct {
		name string
		rows []localrt.Row
	}{
		{"sql", sqlRows(5000)},
		{"pair", pairRows(5000)},
	} {
		blob, flags, rawLen, err := Codec{}.EncodeBlob(shape.rows)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(shape.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(rawLen))
			for i := 0; i < b.N; i++ {
				benchSink, _, _, _ = Codec{}.EncodeBlob(shape.rows)
			}
		})
		b.Run(shape.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(rawLen))
			for i := 0; i < b.N; i++ {
				benchSink, _ = Codec{}.DecodeBlob(blob, flags, rawLen)
			}
		})
	}
}
