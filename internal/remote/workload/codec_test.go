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
			Key: fmt.Sprintf("key-%04d", i%7), // repetitive: compressible
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

func TestCodecCompressedRoundTrip(t *testing.T) {
	rows := pairRows(200)
	blob, flags, rawLen, err := Codec{Compress: true}.EncodeBlob(rows)
	if err != nil {
		t.Fatal(err)
	}
	if flags != wire.BlobDeflate {
		t.Fatalf("flags = %d, want BlobDeflate for repetitive payload", flags)
	}
	if len(blob) >= rawLen {
		t.Fatalf("compressed %d >= raw %d", len(blob), rawLen)
	}
	// A codec with compression off still decodes a compressed blob — the
	// flags travel with the bytes (mixed-cluster interop).
	got, err := Codec{}.DecodeBlob(blob, flags, rawLen)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatal("compressed round trip mismatch")
	}
}

func TestCodecBelowThresholdStaysRaw(t *testing.T) {
	// A payload under compressMin skips compression outright — DEFLATE
	// header overhead would exceed any saving.
	rows := []localrt.Row{1}
	blob, flags, rawLen, err := Codec{Compress: true}.EncodeBlob(rows)
	if err != nil {
		t.Fatal(err)
	}
	if rawLen >= compressMin {
		t.Fatalf("one int row encodes to %d bytes", rawLen)
	}
	if flags != wire.BlobRaw {
		t.Fatalf("sub-threshold payload compressed (flags=%d)", flags)
	}
	got, err := (Codec{}).DecodeBlob(blob, flags, rawLen)
	if err != nil || !reflect.DeepEqual(got, rows) {
		t.Fatalf("round trip: %v %v", got, err)
	}
}

func TestCodecDecodeRejectsBadDeclarations(t *testing.T) {
	rows := pairRows(100)
	blob, flags, rawLen, err := Codec{Compress: true}.EncodeBlob(rows)
	if err != nil || flags != wire.BlobDeflate {
		t.Fatalf("setup: flags=%d err=%v", flags, err)
	}
	// Understated rawLen: the inflate bound trips (bomb guard).
	if _, err := (Codec{}).DecodeBlob(blob, flags, rawLen/2); err == nil {
		t.Fatal("want error for understated rawLen")
	}
	// Overstated rawLen on a raw blob.
	raw, _, n, _ := Codec{}.EncodeBlob(rows)
	if _, err := (Codec{}).DecodeBlob(raw, wire.BlobRaw, n+1); err == nil {
		t.Fatal("want error for mismatched raw length")
	}
	// Unknown flags byte.
	if _, err := (Codec{}).DecodeBlob(raw, 99, n); err == nil {
		t.Fatal("want error for unknown flags")
	}
	// Corrupt deflate stream.
	bad := append([]byte(nil), blob...)
	for i := range bad {
		bad[i] ^= 0xFF
	}
	if _, err := (Codec{}).DecodeBlob(bad, wire.BlobDeflate, rawLen); err == nil {
		t.Fatal("want error for corrupt stream")
	}
}

func TestCodecEmptyRows(t *testing.T) {
	for _, c := range []Codec{{}, {Compress: true}} {
		blob, flags, rawLen, err := c.EncodeBlob(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) != 0 || flags != wire.BlobRaw || rawLen != 0 {
			t.Fatalf("empty encode: blob=%d flags=%d rawLen=%d", len(blob), flags, rawLen)
		}
		got, err := c.DecodeBlob(blob, flags, rawLen)
		if err != nil || got != nil {
			t.Fatalf("empty decode: %v %v", got, err)
		}
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
	for i, r := range salesTable(n).Rows {
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
