package shuffle

import (
	"bytes"
	"errors"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ursa/internal/dag"
	"ursa/internal/localrt"
	"ursa/internal/resource"
	"ursa/internal/wire"
)

// fakeHolder is a minimal wire-speaking shuffle peer with scripted
// behaviour per request: "ok" answers with one contribution, "wedge" reads
// the request and never answers, "protoerr" answers with a well-formed
// error response.
type fakeHolder struct {
	ln       net.Listener
	mode     string
	requests int32
}

func startHolder(t *testing.T, mode string) *fakeHolder {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &fakeHolder{ln: ln, mode: mode}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go h.serve(nc)
		}
	}()
	return h
}

func (h *fakeHolder) serve(nc net.Conn) {
	c := wire.NewConnConfig(nc, wire.Config{})
	defer c.Close()
	for {
		m, err := c.ReadMsg()
		if err != nil {
			return
		}
		if _, ok := m.(wire.Fetch); !ok {
			return
		}
		atomic.AddInt32(&h.requests, 1)
		switch h.mode {
		case "ok":
			c.Send(wire.FetchResp{Contribs: []wire.PartContrib{{MTID: 7, Flags: wire.BlobRaw, RawLen: 4, Rows: []byte("rows")}}})
		case "wedge":
			// Read, never answer: the failure mode heartbeats cannot see.
		case "protoerr":
			c.Send(wire.FetchResp{Err: "no such dataset"})
		}
	}
}

func (h *fakeHolder) addr() string { return h.ln.Addr().String() }

// TestFetchRetryThenSuccess pins the retry path: transient dial failures are
// absorbed by the backoff budget and the fetch ultimately succeeds, with
// retries reporting exactly the attempts beyond the first. No degradation to
// any fallback is involved at this layer — the caller only sees success.
func TestFetchRetryThenSuccess(t *testing.T) {
	h := startHolder(t, "ok")
	var dials int32
	dial := func(addr string) (net.Conn, error) {
		if atomic.AddInt32(&dials, 1) <= 2 {
			return nil, errors.New("synthetic transient dial failure")
		}
		return wire.NetDial(addr)
	}
	cl := NewClient(h.addr(), ClientConfig{
		Dial: dial, Retries: 4,
		BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond, Seed: 1,
	})
	defer cl.Close()
	contribs, wireBytes, rawBytes, retries, err := cl.Fetch(1, 2, 0, 0)
	if err != nil {
		t.Fatalf("fetch should have succeeded after retries: %v", err)
	}
	if retries != 2 {
		t.Fatalf("retries = %d, want 2 (two failed dials)", retries)
	}
	if len(contribs) != 1 || contribs[0].MTID != 7 || string(contribs[0].Rows) != "rows" {
		t.Fatalf("unexpected contribs: %+v", contribs)
	}
	if wireBytes != 4 || rawBytes != 4 {
		t.Fatalf("wireBytes, rawBytes = %v, %v, want 4, 4", wireBytes, rawBytes)
	}
}

// TestFetchExhaustedRetries pins the budget: when every attempt fails the
// error surfaces only after Retries+1 attempts, with at least the minimum
// jittered backoff (½ of each step) elapsed between them.
func TestFetchExhaustedRetries(t *testing.T) {
	var dials int32
	dial := func(addr string) (net.Conn, error) {
		atomic.AddInt32(&dials, 1)
		return nil, errors.New("synthetic dial failure")
	}
	base := 8 * time.Millisecond
	cl := NewClient("10.255.255.1:1", ClientConfig{
		Dial: dial, Retries: 3, BackoffBase: base, BackoffMax: 32 * time.Millisecond, Seed: 1,
	})
	defer cl.Close()
	start := time.Now()
	_, _, _, retries, err := cl.Fetch(1, 2, 0, 0)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected an error once retries were exhausted")
	}
	if retries != 3 {
		t.Fatalf("retries = %d, want 3", retries)
	}
	if got := atomic.LoadInt32(&dials); got != 4 {
		t.Fatalf("dial attempts = %d, want 4", got)
	}
	// Minimum sleep: ½·(8 + 16 + 32) ms = 28 ms.
	if min := 28 * time.Millisecond; elapsed < min {
		t.Fatalf("retries returned after %v, want >= %v of backoff", elapsed, min)
	}
}

// TestFetchWedgedPeerTimesOut is the satellite-1 regression: a peer that
// accepts the connection and reads the request but never answers must
// surface as a deadline error after the retry budget — not block forever.
func TestFetchWedgedPeerTimesOut(t *testing.T) {
	h := startHolder(t, "wedge")
	cl := NewClient(h.addr(), ClientConfig{
		ReadTimeout: 40 * time.Millisecond, Retries: 1,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond, Seed: 1,
	})
	defer cl.Close()
	start := time.Now()
	_, _, _, retries, err := cl.Fetch(1, 2, 0, 0)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected a timeout error from the wedged peer")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("error should carry the deadline cause, got: %v", err)
	}
	if retries != 1 {
		t.Fatalf("retries = %d, want 1", retries)
	}
	// Two attempts, each bounded by the 40 ms read deadline.
	if elapsed < 80*time.Millisecond {
		t.Fatalf("returned after %v, want >= 80ms (two bounded waits)", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("wedged peer stalled the fetch for %v", elapsed)
	}
	if got := atomic.LoadInt32(&h.requests); got != 2 {
		t.Fatalf("holder saw %d requests, want 2", got)
	}
}

// TestFetchProtocolErrorNotRetried pins the transient/permanent split: a
// well-formed error response from a healthy holder is returned immediately
// (retries = 0) and keeps the connection cached for the next fetch.
func TestFetchProtocolErrorNotRetried(t *testing.T) {
	h := startHolder(t, "protoerr")
	cl := NewClient(h.addr(), ClientConfig{
		Retries: 5, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond, Seed: 1,
	})
	defer cl.Close()
	_, _, _, retries, err := cl.Fetch(1, 2, 0, 0)
	if err == nil {
		t.Fatal("expected the holder's protocol error")
	}
	if retries != 0 {
		t.Fatalf("protocol error was retried %d times; must not be retried", retries)
	}
	if got := atomic.LoadInt32(&h.requests); got != 1 {
		t.Fatalf("holder saw %d requests, want exactly 1", got)
	}
	// The connection stays cached: a second fetch reuses it (no redial) and
	// the holder sees it on the same serving loop.
	if _, _, _, _, err = cl.Fetch(1, 2, 1, 0); err == nil {
		t.Fatal("expected the holder's protocol error again")
	}
	if got := atomic.LoadInt32(&h.requests); got != 2 {
		t.Fatalf("holder saw %d requests after second fetch, want 2", got)
	}
}

// storeRuntime builds a runtime around a minimal valid plan so contributions
// can be inserted pre-encoded and served by a real Server.
func storeRuntime(parts int) (*localrt.Runtime, *dag.Dataset) {
	g := dag.NewGraph()
	d := g.CreateData(parts)
	out := g.CreateData(parts)
	op := g.CreateOp(resource.CPU, "sink").Read(d).Create(out)
	op.SetUDF(localrt.UDF(func(ins [][]localrt.Row) []localrt.Row { return ins[0] }))
	return localrt.New(g.MustBuild()), d
}

// TestServerServesStoredBlobs pins the zero-copy serve path end to end: the
// server answers from the encode-once store — bytes, flags and raw lengths
// travel verbatim, unchecked (the receiving codec checks them) — and reports
// wire vs raw served bytes separately.
func TestServerServesStoredBlobs(t *testing.T) {
	rt, d := storeRuntime(1)
	defer rt.Close()
	big := bytes.Repeat([]byte("shuffle-bytes-"), 1<<10)
	rt.InsertEncoded(d, 0, 1, append([]byte(nil), big...), wire.BlobRaw, len(big))
	rt.InsertEncoded(d, 0, 2, []byte("tiny-declared-64"), wire.BlobRaw, 64)
	var wireServed, rawServed float64
	srv := Serve(mustListen(t), ServerConfig{},
		func(jobID int64) *localrt.Runtime {
			if jobID != 9 {
				return nil
			}
			return rt
		},
		func(w, r float64) { wireServed += w; rawServed += r })
	defer srv.Close()
	cl := NewClient(srv.Addr(), ClientConfig{Retries: -1})
	defer cl.Close()
	contribs, wireBytes, rawBytes, _, err := cl.Fetch(9, int32(d.ID), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(contribs) != 2 {
		t.Fatalf("contribs = %d, want 2", len(contribs))
	}
	if contribs[0].MTID != 1 || !bytes.Equal(contribs[0].Rows, big) || contribs[0].Flags != wire.BlobRaw || int(contribs[0].RawLen) != len(big) {
		t.Fatal("first contribution did not travel verbatim")
	}
	if contribs[1].MTID != 2 || string(contribs[1].Rows) != "tiny-declared-64" || contribs[1].Flags != wire.BlobRaw || contribs[1].RawLen != 64 {
		t.Fatalf("second contribution mangled: %+v", contribs[1])
	}
	wantWire := float64(len(big) + len("tiny-declared-64"))
	wantRaw := float64(len(big) + 64)
	if wireBytes != wantWire || rawBytes != wantRaw {
		t.Fatalf("client observed wire=%v raw=%v, want %v/%v", wireBytes, rawBytes, wantWire, wantRaw)
	}
	if wireServed != wantWire || rawServed != wantRaw {
		t.Fatalf("server observed wire=%v raw=%v, want %v/%v", wireServed, rawServed, wantWire, wantRaw)
	}
	// Unknown job: a clean protocol error, not a torn connection.
	if _, _, _, retries, err := cl.Fetch(404, int32(d.ID), 0, 0); err == nil || retries != 0 {
		t.Fatalf("unknown job: err=%v retries=%d, want protocol error without retries", err, retries)
	}
}

// TestServerStreamsSpilledBlobs pins the spill path: contributions evicted to
// disk are served byte-identically, streamed through a bounded chunk buffer
// rather than re-materialized.
func TestServerStreamsSpilledBlobs(t *testing.T) {
	rt, d := storeRuntime(1)
	defer rt.Close()
	rt.SetSpill(1, t.TempDir()) // budget 1: everything spills
	payloads := [][]byte{
		bytes.Repeat([]byte("spilled-a-"), 40<<10), // ~400KiB: multiple spillChunks
		[]byte("spilled-b"),
	}
	for i, p := range payloads {
		rt.InsertEncoded(d, 0, i+1, append([]byte(nil), p...), wire.BlobRaw, len(p))
	}
	if err := rt.SpillErr(); err != nil {
		t.Fatal(err)
	}
	if rt.SpilledBytes() == 0 {
		t.Fatal("nothing spilled; test is vacuous")
	}
	srv := Serve(mustListen(t), ServerConfig{},
		func(int64) *localrt.Runtime { return rt }, nil)
	defer srv.Close()
	cl := NewClient(srv.Addr(), ClientConfig{Retries: -1})
	defer cl.Close()
	contribs, _, _, _, err := cl.Fetch(1, int32(d.ID), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(contribs) != 2 {
		t.Fatalf("contribs = %d, want 2", len(contribs))
	}
	for i, p := range payloads {
		if !bytes.Equal(contribs[i].Rows, p) {
			t.Fatalf("spilled contribution %d not byte-identical (%d vs %d bytes)", i, len(contribs[i].Rows), len(p))
		}
	}
}

// TestServerRefusesOversizedPartition pins the bound: a partition whose
// response would exceed MaxFrame comes back as a diagnosable protocol error
// instead of a torn frame.
func TestServerRefusesOversizedPartition(t *testing.T) {
	rt, d := storeRuntime(1)
	defer rt.Close()
	blob := bytes.Repeat([]byte("x"), 4096)
	rt.InsertEncoded(d, 0, 1, blob, wire.BlobRaw, len(blob))
	srv := Serve(mustListen(t), ServerConfig{MaxFrame: 1024},
		func(int64) *localrt.Runtime { return rt }, nil)
	defer srv.Close()
	cl := NewClient(srv.Addr(), ClientConfig{Retries: -1})
	defer cl.Close()
	_, _, _, retries, err := cl.Fetch(1, int32(d.ID), 0, 0)
	if err == nil || retries != 0 {
		t.Fatalf("err=%v retries=%d, want immediate protocol error", err, retries)
	}
	if !strings.Contains(err.Error(), "exceeds max frame") {
		t.Fatalf("error should name the bound, got: %v", err)
	}
}

func mustListen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestServerReadIdleCutsSilentClient pins the server-side bound: a client
// that connects and goes silent is disconnected after ReadIdle instead of
// pinning a serving goroutine forever.
func TestServerReadIdleCutsSilentClient(t *testing.T) {
	srv := Serve(mustListen(t), ServerConfig{ReadIdle: 30 * time.Millisecond},
		func(int64) *localrt.Runtime { return nil }, nil)
	defer srv.Close()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Send nothing. The server must hang up on its own.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("expected the server to close the silent connection")
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("server did not cut the silent client within 5s: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("silent client held the connection for %v", elapsed)
	}
}
