package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"
)

// netPipe returns a synchronous in-memory connection pair.
func netPipe(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	c1, c2 := net.Pipe()
	return c1, c2
}

// roundTrip frames m, reads the frame back, decodes it, and returns the
// decoded message.
func roundTrip(t *testing.T, m Msg) Msg {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, m); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	typ, payload, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if typ != m.Type() {
		t.Fatalf("type byte = %d, want %d", typ, m.Type())
	}
	got, err := Decode(typ, payload)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return got
}

func TestRoundTripAllMessages(t *testing.T) {
	msgs := []Msg{
		Register{ShuffleAddr: "127.0.0.1:9999", Cores: 8},
		Register{}, // empty strings must survive
		Register{ShuffleAddr: "127.0.0.1:9999", Cores: 4, MemBytes: 16e9,
			CoreRate: 5e7, NetBandwidth: 1.25e9, DiskBandwidth: 2e8},
		Welcome{WorkerID: 3, HeartbeatMicros: 250_000, Gen: 2},
		Heartbeat{WorkerID: 3, SentUnixMicros: 1_722_000_000_123_456},
		Prepare{JobID: 7, Workload: "wordcount", Params: []byte{1, 2, 3}},
		Prepare{JobID: 8, Workload: "empty", Params: nil},
		JobReady{JobID: 7},
		JobReady{JobID: 7, Err: "builder exploded"},
		Dispatch{JobID: 7, MTID: 42, Seq: 9},
		Dispatch{
			JobID: 7, MTID: 42, Seq: 10,
			Fetches: []FetchSpec{
				{DatasetID: 1, Part: 0, Origin: -1, Addr: "10.0.0.1:1"},
				{DatasetID: 1, Part: 1, Origin: 2, Addr: "10.0.0.2:2"},
			},
		},
		Complete{JobID: 7, MTID: 42, Seq: 10, Seconds: 0.125, FetchedWireBytes: 4096, FetchedRawBytes: 8192},
		Complete{
			JobID: 7, MTID: 42, Seq: 10, Seconds: 1e-6, Err: "exec failed",
			Writes: []PartWrite{
				{DatasetID: 2, Part: 3, Flags: BlobRaw, RawLen: 7, Rows: []byte("rowdata")},
				{DatasetID: 2, Part: 4, Flags: BlobRaw, RawLen: 99, Rows: nil},
			},
		},
		Abort{JobID: 7, MTID: 42, Seq: 10},
		Fetch{JobID: 7, DatasetID: 2, Part: 3, Origin: 1},
		FetchResp{Err: "no such partition"},
		FetchResp{
			Contribs: []PartContrib{
				{MTID: 5, Flags: BlobRaw, RawLen: 1 << 20, Rows: []byte("abc")},
				{MTID: 9, Rows: []byte{}},
			},
		},
		JobDone{JobID: 7},
		Shutdown{},
		SubmitJob{SubmitID: 11, Tenant: "team-a", Workload: "micro", Params: []byte{4, 5}},
		SubmitJob{}, // empty tenant/workload/params must survive
		SubmitAck{SubmitID: 11, JobID: 3},
		SubmitAck{SubmitID: 12, Err: "intake full"},
		JobStatus{SubmitID: 11, JobID: 3, State: StateAdmitted},
		JobStatus{SubmitID: 11, JobID: 3, State: StateCancelled, Detail: "drain"},
		CancelJob{JobID: 3},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !equalMsg(got, m) {
			t.Errorf("round trip mismatch:\n got %#v\nwant %#v", got, m)
		}
	}
}

// equalMsg compares messages treating nil and empty slices as equal (the
// codec cannot distinguish them, by design).
func equalMsg(a, b Msg) bool {
	return reflect.DeepEqual(normalize(a), normalize(b))
}

func normalize(m Msg) Msg {
	switch v := m.(type) {
	case Prepare:
		if len(v.Params) == 0 {
			v.Params = nil
		}
		return v
	case Dispatch:
		if len(v.Fetches) == 0 {
			v.Fetches = nil
		}
		return v
	case Complete:
		for i := range v.Writes {
			if len(v.Writes[i].Rows) == 0 {
				v.Writes[i].Rows = nil
			}
		}
		if len(v.Writes) == 0 {
			v.Writes = nil
		}
		return v
	case FetchResp:
		for i := range v.Contribs {
			if len(v.Contribs[i].Rows) == 0 {
				v.Contribs[i].Rows = nil
			}
		}
		if len(v.Contribs) == 0 {
			v.Contribs = nil
		}
		return v
	case SubmitJob:
		if len(v.Params) == 0 {
			v.Params = nil
		}
		return v
	}
	return m
}

// TestTrySendDropsWithoutFailing pins the bounded-queue contract for
// best-effort streams: when the outbound queue is full, TrySend reports
// false and the connection stays healthy — unlike Send, which treats a full
// queue as a transport failure and closes the link.
func TestTrySendDropsWithoutFailing(t *testing.T) {
	c1, c2 := netPipe(t)
	defer c2.Close()
	// net.Pipe is synchronous: with no reader on c2, nothing drains, so a
	// 2-slot queue fills after the pump takes the first frame.
	conn := NewConnConfig(c1, Config{SendQueue: 2})
	defer conn.Close()
	sent, dropped := 0, 0
	for i := 0; i < 64; i++ {
		if conn.TrySend(Heartbeat{WorkerID: int32(i)}) {
			sent++
		} else {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatalf("expected drops on a full 2-slot queue; sent=%d", sent)
	}
	if err := conn.SendErr(); err != nil {
		t.Fatalf("TrySend poisoned the connection: %v", err)
	}
	// The link must still accept frames once there is room again.
	go func() {
		r := NewConnConfig(c2, Config{})
		for {
			if _, err := r.ReadMsg(); err != nil {
				return
			}
		}
	}()
	ok := false
	deadline := time.Now().Add(5 * time.Second)
	for !ok && time.Now().Before(deadline) {
		ok = conn.TrySend(Heartbeat{WorkerID: 99})
		if !ok {
			time.Sleep(time.Millisecond)
		}
	}
	if !ok {
		t.Fatal("TrySend never succeeded after the queue drained")
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	// Header declares a 1 GiB frame; only the header is present. The read
	// must fail on the length check without trying to allocate or read.
	hdr := []byte{0x40, 0x00, 0x00, 0x00} // 1 GiB
	_, _, err := ReadFrame(bytes.NewReader(hdr), 1<<20)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameRejectsEmpty(t *testing.T) {
	hdr := []byte{0, 0, 0, 0}
	_, _, err := ReadFrame(bytes.NewReader(hdr), 0)
	if err == nil {
		t.Fatal("want error for zero-length frame")
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	// Declares 10 bytes, provides 3.
	raw := []byte{0, 0, 0, 10, THeartbeat, 1, 2}
	_, _, err := ReadFrame(bytes.NewReader(raw), 0)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestDecodeUnknownType(t *testing.T) {
	if _, err := Decode(200, nil); err == nil {
		t.Fatal("want error for unknown message type")
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	var e Encoder
	JobDone{JobID: 1}.encode(&e)
	payload := append(e.Bytes(), 0xFF) // one stray byte
	if _, err := Decode(TJobDone, payload); err == nil {
		t.Fatal("want error for trailing bytes")
	}
}

func TestDecodeTruncatedPayload(t *testing.T) {
	var e Encoder
	Complete{JobID: 1, MTID: 2, Seq: 3, Seconds: 4, Err: "xyz"}.encode(&e)
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := Decode(TComplete, full[:cut]); err == nil {
			t.Fatalf("Decode of %d/%d bytes succeeded, want error", cut, len(full))
		}
	}
}

func TestDecodeHugeListCount(t *testing.T) {
	// A Dispatch whose fetch-list count claims 2^31 elements with no
	// payload behind it must be rejected by the count guard, not
	// preallocated.
	var e Encoder
	e.I64(1)       // JobID
	e.I32(2)       // MTID
	e.U64(3)       // Seq
	e.U32(1 << 31) // absurd fetch count
	_, err := Decode(TDispatch, e.Bytes())
	if err == nil {
		t.Fatal("want error for absurd list count")
	}
}

func TestDecodeHugeStringPrefix(t *testing.T) {
	// Register with a string length prefix far beyond the payload.
	var e Encoder
	e.U32(1 << 30)
	_, err := Decode(TRegister, e.Bytes())
	if err == nil {
		t.Fatal("want error for oversized string prefix")
	}
}

func TestBlobAliasesBuffer(t *testing.T) {
	var e Encoder
	e.Blob([]byte{1, 2, 3})
	d := NewDecoder(e.Bytes())
	b := d.Blob()
	if len(b) != 3 || cap(b) != 3 {
		t.Fatalf("blob len/cap = %d/%d, want 3/3", len(b), cap(b))
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", d.Err(), d.Remaining())
	}
}

func TestAppendFramePatchesLength(t *testing.T) {
	frame := AppendFrame(nil, Heartbeat{WorkerID: 1, SentUnixMicros: 2})
	typ, payload, err := ReadFrame(bytes.NewReader(frame), 0)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if typ != THeartbeat {
		t.Fatalf("typ = %d", typ)
	}
	m, err := Decode(typ, payload)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if hb := m.(Heartbeat); hb.WorkerID != 1 || hb.SentUnixMicros != 2 {
		t.Fatalf("decoded %#v", hb)
	}
}

func TestBoolRejectsNonCanonicalByte(t *testing.T) {
	// A bool byte other than 0/1 must be a decode error, not a silent
	// "truthy" — otherwise decode∘encode would not be the identity and the
	// fuzz canonical-re-encode invariant would break.
	var e Encoder
	e.U8(2)
	d := NewDecoder(e.Bytes())
	d.Bool()
	if d.Err() == nil {
		t.Fatal("want error for bool byte 2")
	}
	for _, b := range []byte{0, 1} {
		d := NewDecoder([]byte{b})
		if got := d.Bool(); got != (b == 1) || d.Err() != nil {
			t.Fatalf("byte %d: got %v err %v", b, got, d.Err())
		}
	}
}

func TestGetPutBufClasses(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{1, 512}, {512, 512}, {513, 1024}, {4096, 4096}, {4097, 8192},
	}
	for _, c := range cases {
		b := GetBuf(c.n)
		if len(b) != c.n || cap(b) != c.wantCap {
			t.Fatalf("GetBuf(%d): len/cap = %d/%d, want %d/%d", c.n, len(b), cap(b), c.n, c.wantCap)
		}
		PutBuf(b)
	}
	if b := GetBuf(0); b != nil {
		t.Fatalf("GetBuf(0) = %v, want nil", b)
	}
	// Oversize requests bypass the pool but still work.
	huge := GetBuf((1 << maxPoolClass) + 1)
	if len(huge) != (1<<maxPoolClass)+1 {
		t.Fatalf("oversize GetBuf len = %d", len(huge))
	}
	PutBuf(huge)                 // dropped, not pooled — must not panic
	PutBuf(nil)                  // no-op
	PutBuf(make([]byte, 0, 777)) // non-class cap — dropped
}

func TestPutBufRecycles(t *testing.T) {
	b := GetBuf(1000)
	b[0] = 0xAB
	PutBuf(b)
	// Not guaranteed by sync.Pool, but single-goroutine Get-after-Put
	// reliably returns the same buffer in practice; if the pool drops it the
	// test still passes (we only check validity, then identity best-effort).
	c := GetBuf(900)
	if cap(c) != 1024 {
		t.Fatalf("cap = %d, want 1024", cap(c))
	}
	PutBuf(c)
}

func TestReadFrameIntoReusesBuffer(t *testing.T) {
	var stream bytes.Buffer
	msgs := []Msg{
		Heartbeat{WorkerID: 1, SentUnixMicros: 2},
		JobDone{JobID: 3},
		Abort{JobID: 4, MTID: 5, Seq: 6},
	}
	for _, m := range msgs {
		if err := WriteFrame(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	var caps []int
	for i, want := range msgs {
		typ, payload, nb, err := ReadFrameInto(&stream, buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		buf = nb
		caps = append(caps, cap(buf))
		m, err := Decode(typ, payload)
		if err != nil {
			t.Fatalf("frame %d decode: %v", i, err)
		}
		if !equalMsg(m, want) {
			t.Fatalf("frame %d: got %#v want %#v", i, m, want)
		}
	}
	// After the first (largest-class) growth, the buffer must be retained —
	// identical capacity, no churn.
	if caps[1] != caps[0] || caps[2] != caps[0] {
		t.Fatalf("buffer not retained across frames: caps %v", caps)
	}
	PutBuf(buf)
}

func TestReadFrameIntoZeroAllocSteadyState(t *testing.T) {
	frame := AppendFrame(nil, Heartbeat{WorkerID: 9, SentUnixMicros: 100})
	r := bytes.NewReader(nil)
	buf := GetBuf(len(frame)) // pre-warm past the growth path
	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(frame)
		_, _, nb, err := ReadFrameInto(r, buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		buf = nb
	})
	if allocs != 0 {
		t.Fatalf("ReadFrameInto allocs/op = %v, want 0", allocs)
	}
	PutBuf(buf)
}

func TestBufShrinkerReleasesStaleCapacity(t *testing.T) {
	var s Shrinker
	big := GetBuf(1 << 20)[:0]
	// Large uses keep the buffer indefinitely.
	for i := 0; i < shrinkRuns*2; i++ {
		if got := s.Next(big, 1<<19); got == nil {
			t.Fatal("shrinker released a buffer under heavy use")
		}
	}
	// A sustained run of small uses releases it.
	released := false
	for i := 0; i < shrinkRuns; i++ {
		if s.Next(big, 100) == nil {
			released = true
			break
		}
	}
	if !released {
		t.Fatalf("shrinker kept a 1MiB buffer after %d tiny uses", shrinkRuns)
	}
	// Small caps are never shrunk.
	small := GetBuf(4 << 10)[:0]
	for i := 0; i < shrinkRuns*2; i++ {
		if s.Next(small, 1) == nil {
			t.Fatal("shrinker released a <=64KiB buffer")
		}
	}
	PutBuf(small)
}

func TestFetchHelpersRoundTrip(t *testing.T) {
	want := Fetch{JobID: 7, DatasetID: 2, Part: 3, Origin: -1}
	frame := AppendFetchFrame(nil, want)
	typ, payload, err := ReadFrame(bytes.NewReader(frame), 0)
	if err != nil || typ != TFetch {
		t.Fatalf("typ=%d err=%v", typ, err)
	}
	got, err := DecodeFetch(payload)
	if err != nil || got != want {
		t.Fatalf("got %#v err=%v, want %#v", got, err, want)
	}
	// Generic Decode must agree with the no-boxing helper.
	m, err := Decode(typ, payload)
	if err != nil || m.(Fetch) != want {
		t.Fatalf("generic decode got %#v err=%v", m, err)
	}
	if _, err := DecodeFetch(payload[:len(payload)-1]); err == nil {
		t.Fatal("want error for truncated fetch")
	}
	if _, err := DecodeFetch(append(append([]byte{}, payload...), 0)); err == nil {
		t.Fatal("want error for trailing bytes")
	}
}

func TestDecodeFetchRespIntoReusesContribs(t *testing.T) {
	src := FetchResp{Contribs: []PartContrib{
		{MTID: 1, Flags: BlobRaw, RawLen: 3, Rows: []byte("abc")},
		{MTID: 2, Flags: BlobRaw, RawLen: 10, Rows: []byte("zz")},
	}}
	var e Encoder
	src.encode(&e)
	payload := e.Bytes()

	var m FetchResp
	if err := DecodeFetchRespInto(payload, &m); err != nil {
		t.Fatal(err)
	}
	if !equalMsg(m, src) {
		t.Fatalf("got %#v want %#v", m, src)
	}
	// Contribs must alias the payload (zero-copy): a payload mutation shows
	// through the decoded view.
	payload[len(payload)-1] ^= 0xFF
	if m.Contribs[1].Rows[1] == 'z' {
		t.Fatal("contribs do not alias payload")
	}
	payload[len(payload)-1] ^= 0xFF
	// Second decode into the same struct must not allocate a new slice.
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeFetchRespInto(payload, &m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeFetchRespInto allocs/op = %v, want 0", allocs)
	}
	if err := DecodeFetchRespInto(payload[:3], &m); err == nil {
		t.Fatal("want error for truncated resp")
	}
}

func TestConnPooledReadsDeliverMessages(t *testing.T) {
	// A pipe with PooledReads on one side: every message must arrive intact
	// even though the reader reuses one buffer, because each is consumed
	// before the next read (the documented contract).
	c1, c2 := netPipe(t)
	defer c1.Close()
	defer c2.Close()
	a := NewConnConfig(c1, Config{})
	b := NewConnConfig(c2, Config{PooledReads: true})
	defer a.Close()
	defer b.Close()

	want := []Msg{
		Prepare{JobID: 1, Workload: "wc", Params: []byte("pppp")},
		Complete{JobID: 1, MTID: 2, Seq: 3, Writes: []PartWrite{{DatasetID: 1, Part: 0, Flags: BlobRaw, RawLen: 4, Rows: []byte("rows")}}},
		Heartbeat{WorkerID: 5, SentUnixMicros: 6},
	}
	for _, m := range want {
		if !a.Send(m) {
			t.Fatal("send failed")
		}
	}
	for i, w := range want {
		m, err := b.ReadMsg()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !equalMsg(m, w) {
			t.Fatalf("read %d: got %#v want %#v", i, m, w)
		}
	}
}

func TestAppendFrameReusesBuffer(t *testing.T) {
	// Two frames appended back-to-back must both parse.
	buf := AppendFrame(nil, JobDone{JobID: 1})
	buf = AppendFrame(buf, Abort{JobID: 2, MTID: 3, Seq: 4})
	r := bytes.NewReader(buf)
	for i, wantType := range []byte{TJobDone, TAbort} {
		typ, payload, err := ReadFrame(r, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != wantType {
			t.Fatalf("frame %d type = %d, want %d", i, typ, wantType)
		}
		if _, err := Decode(typ, payload); err != nil {
			t.Fatalf("frame %d decode: %v", i, err)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d leftover bytes", r.Len())
	}
}

// TestBackoffBounds pins the backoff shape: sleep_k ∈ [½,1)·min(base·2^k,
// max) for every step, including far past the cap (no overflow).
func TestBackoffBounds(t *testing.T) {
	const base, max = 10 * time.Millisecond, 80 * time.Millisecond
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 64; k++ {
		want := base << uint(k)
		if want > max || want <= 0 {
			want = max
		}
		for trial := 0; trial < 32; trial++ {
			if got := Backoff(rng, base, max, k); got < want/2 || got >= want {
				t.Fatalf("Backoff(k=%d) = %v, want in [%v, %v)", k, got, want/2, want)
			}
		}
	}
}
