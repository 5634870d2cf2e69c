package localrt

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ursa/internal/dag"
	"ursa/internal/resource"
)

// fakeCodec encodes string rows as a length-prefixed join — enough structure
// to detect corruption, no real codec. flags==1 marks an xor-"compressed"
// blob so flag plumbing is exercised without a real compressor.
type fakeCodec struct {
	compress  bool
	encodeErr error
	decodeErr error
}

func (f fakeCodec) EncodeBlob(rows []Row) ([]byte, byte, int, error) {
	if f.encodeErr != nil {
		return nil, 0, 0, f.encodeErr
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d|", len(rows))
	for _, r := range rows {
		s := r.(string)
		fmt.Fprintf(&b, "%d:%s", len(s), s)
	}
	blob := b.Bytes()
	rawLen := len(blob)
	var flags byte
	if f.compress {
		flags = 1
		for i := range blob {
			blob[i] ^= 0x5A
		}
	}
	return blob, flags, rawLen, nil
}

func (f fakeCodec) DecodeBlob(blob []byte, flags byte, rawLen int) ([]Row, error) {
	if f.decodeErr != nil {
		return nil, f.decodeErr
	}
	if flags == 1 {
		dec := make([]byte, len(blob))
		for i := range blob {
			dec[i] = blob[i] ^ 0x5A
		}
		blob = dec
	}
	if len(blob) != rawLen {
		return nil, fmt.Errorf("fakeCodec: rawLen %d != %d", rawLen, len(blob))
	}
	s := string(blob)
	bar := strings.IndexByte(s, '|')
	if bar < 0 {
		return nil, errors.New("fakeCodec: corrupt blob")
	}
	var n int
	fmt.Sscanf(s[:bar], "%d", &n)
	s = s[bar+1:]
	rows := make([]Row, 0, n)
	for i := 0; i < n; i++ {
		colon := strings.IndexByte(s, ':')
		if colon < 0 {
			return nil, errors.New("fakeCodec: corrupt entry")
		}
		var l int
		fmt.Sscanf(s[:colon], "%d", &l)
		rows = append(rows, s[colon+1:colon+1+l])
		s = s[colon+1+l:]
	}
	return rows, nil
}

// passthrough builds a one-op identity plan: in → copy → out, both with the
// given partition count.
func passthrough(parts int) (*dag.Graph, *dag.Dataset, *dag.Dataset) {
	g := dag.NewGraph()
	in := g.CreateData(parts)
	out := g.CreateData(parts)
	op := g.CreateOp(resource.CPU, "copy").Read(in).Create(out)
	op.SetUDF(UDF(func(ins [][]Row) []Row { return ins[0] }))
	return g, in, out
}

func inputRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = fmt.Sprintf("row-%03d-%s", i, strings.Repeat("x", i%17))
	}
	return rows
}

func sortedStrings(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.(string)
	}
	sort.Strings(out)
	return out
}

func TestEncodeOnceCommitCachesBlobs(t *testing.T) {
	g, in, out := passthrough(3)
	rt := New(g.MustBuild())
	rt.SetCodec(fakeCodec{})
	rt.SetInput(in, inputRows(10))
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.BlobBytes() == 0 {
		t.Fatal("commit with codec installed cached no blobs")
	}
	// Serving must hand back the cached bytes, not re-encode: two calls
	// return the same backing array.
	refs1, err := rt.PartBlobsAppend(nil, out, 0)
	if err != nil {
		t.Fatal(err)
	}
	refs2, err := rt.PartBlobsAppend(nil, out, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs1) == 0 || len(refs1) != len(refs2) {
		t.Fatalf("refs: %d vs %d", len(refs1), len(refs2))
	}
	for i := range refs1 {
		if !refs1[i].InMemory() || &refs1[i].Data[0] != &refs2[i].Data[0] {
			t.Fatal("PartBlobsAppend re-encoded instead of serving the cached blob")
		}
	}
	// Round trip through the codec matches the direct rows.
	var decoded []Row
	for _, ref := range refs1 {
		rows, err := fakeCodec{}.DecodeBlob(ref.Data, ref.Flags, ref.RawLen)
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, rows...)
	}
	want, err := rt.RowsErr(out)
	if err != nil {
		t.Fatal(err)
	}
	// Partition 0 holds a subset; just check containment and non-emptiness.
	wantSet := map[string]bool{}
	for _, r := range want {
		wantSet[r.(string)] = true
	}
	for _, r := range decoded {
		if !wantSet[r.(string)] {
			t.Fatalf("decoded unexpected row %q", r)
		}
	}
}

func TestInsertEncodedDecodesLazilyAndIdempotently(t *testing.T) {
	g := dag.NewGraph()
	d := g.CreateData(2)
	rt := New(mustPlanWith(g, d))
	codec := fakeCodec{compress: true}
	rt.SetCodec(codec)

	rows := []Row{"alpha", "beta", "gamma"}
	blob, flags, rawLen, err := codec.EncodeBlob(rows)
	if err != nil {
		t.Fatal(err)
	}
	rt.InsertEncoded(d, 1, 7, blob, flags, rawLen)
	rt.InsertEncoded(d, 1, 7, append([]byte(nil), blob...), flags, rawLen) // dup dropped
	got, err := rt.RowsErr(d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedStrings(got), []string{"alpha", "beta", "gamma"}) {
		t.Fatalf("rows = %v", got)
	}
	// ContribBlob returns the exact stored bytes.
	b2, f2, r2, err := rt.ContribBlob(d, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b2, blob) || f2 != flags || r2 != rawLen {
		t.Fatal("ContribBlob does not match inserted blob")
	}
}

// TestServeFromStoreDoesNotAllocate holds the shuffle server's per-fetch
// work to a lookup: a partition whose contributions arrived encoded is
// served as handles onto the stored bytes, into the caller's retained slice,
// with no heap allocation. A serve that marshals, copies a blob or builds a
// fresh handle slice allocates per contribution and fails here.
func TestServeFromStoreDoesNotAllocate(t *testing.T) {
	const contribs = 16
	g := dag.NewGraph()
	d := g.CreateData(1)
	rt := New(mustPlanWith(g, d))
	defer rt.Close()
	rt.SetCodec(fakeCodec{})
	inserted := 0
	for c := 0; c < contribs; c++ {
		blob, flags, rawLen, err := fakeCodec{}.EncodeBlob(inputRows(64 + c))
		if err != nil {
			t.Fatal(err)
		}
		inserted += len(blob)
		rt.InsertEncoded(d, 0, c, blob, flags, rawLen)
	}
	refs, err := rt.PartBlobsAppend(nil, d, 0) // sizes the retained slice
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		refs, err = rt.PartBlobsAppend(refs[:0], d, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for i := range refs {
		served += refs[i].Len
	}
	if allocs != 0 || len(refs) != contribs || served != inserted {
		t.Fatalf("serve: %v allocs, %d refs, %d bytes; want 0 allocs, %d refs, %d bytes",
			allocs, len(refs), served, contribs, inserted)
	}
}

func TestSpillEvictsServesAndDecodes(t *testing.T) {
	g, in, out := passthrough(4)
	rt := New(g.MustBuild())
	rt.SetCodec(fakeCodec{})
	dir := t.TempDir()
	rt.SetSpill(1, dir) // budget of one byte: spill everything
	rt.SetInput(in, inputRows(40))
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if err := rt.SpillErr(); err != nil {
		t.Fatal(err)
	}
	if rt.SpilledBytes() == 0 {
		t.Fatal("budget 1 spilled nothing")
	}
	if rt.BlobBytes() > 1 {
		t.Fatalf("BlobBytes = %d, want <= budget after spill", rt.BlobBytes())
	}
	// Spilled contributions still serve: refs stream via ReadAt and the
	// bytes decode to the same rows.
	var all []Row
	for p := 0; p < 4; p++ {
		refs, err := rt.PartBlobsAppend(nil, out, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range refs {
			if ref.InMemory() {
				continue
			}
			buf := make([]byte, ref.Len)
			// Chunked read, as the streaming server does.
			for off := 0; off < ref.Len; off += 7 {
				end := off + 7
				if end > ref.Len {
					end = ref.Len
				}
				if _, err := ref.ReadAt(buf[off:end], int64(off)); err != nil {
					t.Fatal(err)
				}
			}
			rows, err := fakeCodec{}.DecodeBlob(buf, ref.Flags, ref.RawLen)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, rows...)
		}
	}
	want, err := rt.RowsErr(out) // decode-from-disk path
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedStrings(all), sortedStrings(want)) {
		t.Fatal("streamed spilled bytes decode differently from RowsErr")
	}
	if !reflect.DeepEqual(sortedStrings(want), sortedStrings(inputRows(40))) {
		t.Fatal("spilled run lost or mutated rows")
	}
	// Close removes the spill file.
	rt.Close()
	matches, _ := filepath.Glob(filepath.Join(dir, "ursa-spill-*"))
	if len(matches) != 0 {
		t.Fatalf("spill files left after Close: %v", matches)
	}
	if _, err := rt.RowsErr(out); err == nil {
		t.Fatal("reading spilled rows after Close must fail")
	}
}

func TestSpillWriteFailureDegradesToMemory(t *testing.T) {
	g, in, out := passthrough(2)
	rt := New(g.MustBuild())
	rt.SetCodec(fakeCodec{})
	// A spill dir that cannot exist forces CreateTemp to fail.
	rt.SetSpill(1, filepath.Join(t.TempDir(), "absent", "nope"))
	rt.SetInput(in, inputRows(8))
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.SpillErr() == nil {
		t.Fatal("want recorded spill error")
	}
	got, err := rt.RowsErr(out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedStrings(got), sortedStrings(inputRows(8))) {
		t.Fatal("in-memory degradation lost rows")
	}
}

func TestDecodeErrorPropagates(t *testing.T) {
	g := dag.NewGraph()
	d := g.CreateData(1)
	rt := New(mustPlanWith(g, d))
	rt.SetCodec(fakeCodec{decodeErr: errors.New("boom")})
	rt.InsertEncoded(d, 0, 3, []byte("junk"), 0, 4)
	if _, err := rt.RowsErr(d); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want decode boom", err)
	}
}

// mustPlanWith builds a minimal valid plan whose graph contains d — enough
// for store-only tests that never Run.
func mustPlanWith(g *dag.Graph, d *dag.Dataset) *dag.Plan {
	out := g.CreateData(d.Partitions)
	op := g.CreateOp(resource.CPU, "sink").Read(d).Create(out)
	op.SetUDF(UDF(func(ins [][]Row) []Row { return ins[0] }))
	return g.MustBuild()
}

// barrierCodec holds every DecodeBlob until `need` of them are inside at
// once, so a decode that ran under the store lock (where a second cannot
// start) times out instead of passing.
type barrierCodec struct {
	fakeCodec
	need    int32
	inside  atomic.Int32
	decodes atomic.Int32
	open    chan struct{}
}

func (b *barrierCodec) DecodeBlob(blob []byte, flags byte, rawLen int) ([]Row, error) {
	b.decodes.Add(1)
	if b.inside.Add(1) == b.need {
		close(b.open)
	}
	select {
	case <-b.open:
	case <-time.After(5 * time.Second):
		return nil, errors.New("barrierCodec: no second decode joined this one")
	}
	return b.fakeCodec.DecodeBlob(blob, flags, rawLen)
}

// TestGatherDecodesOutsideTheLock: two monotasks gathering different fetched
// contributions of one runtime decode them at the same time, and what they
// decoded is published to the store, so the result read decodes nothing.
func TestGatherDecodesOutsideTheLock(t *testing.T) {
	g, in, out := passthrough(2)
	plan := g.MustBuild()
	rt := New(plan)
	codec := &barrierCodec{need: 2, open: make(chan struct{})}
	rt.SetCodec(codec)
	want := [][]Row{{"a", "b"}, {"c"}}
	in.SetInput([]float64{2, 1})
	for part, rows := range want {
		blob, flags, rawLen, err := codec.EncodeBlob(rows)
		if err != nil {
			t.Fatal(err)
		}
		rt.InsertEncoded(in, part, InputMTID, blob, flags, rawLen)
	}
	var mts []*dag.Monotask
	for _, task := range plan.InitialReady() {
		mts = append(mts, task.ReadyMonotasks()...)
	}
	if len(mts) != 2 {
		t.Fatalf("%d ready monotasks, want 2", len(mts))
	}
	errs := make(chan error, len(mts))
	for _, mt := range mts {
		plan.Prepare(mt)
		go func(mt *dag.Monotask) { errs <- rt.Exec(mt) }(mt)
	}
	for range mts {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []*dag.Dataset{in, out} {
		if got := rt.Partitions(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("dataset %d = %v, want %v", d.ID, got, want)
		}
	}
	if n := codec.decodes.Load(); n != 2 {
		t.Fatalf("%d decodes, want 2: gathered rows were not published", n)
	}
}
