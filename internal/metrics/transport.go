package metrics

import (
	"fmt"
	"sync"
	"time"
)

// Transport aggregates data-plane counters for the distributed mode: per
// worker, dispatches and completions, the task round trip, shuffle bytes
// fetched over the wire and fetch degradation; cluster-wide, the round trip
// over all tasks and the bytes the master's own fetch server handed out.
// Membership and heartbeats are the master's: its stats line reads them
// through the liveness func given to NewTransport. Safe for concurrent use —
// the master's fetch server records served bytes off the control loop while
// everything else arrives on it.
type Transport struct {
	liveness func(now time.Time) Liveness

	mu             sync.Mutex
	workers        map[int]*WorkerTransport
	rttEWMA        float64
	servedBytes    float64
	servedRawBytes float64
}

// WorkerTransport is one worker's transport counters.
type WorkerTransport struct {
	Dispatches  int
	Completions int
	// RTTEWMA is the exponentially weighted round trip of a task, from its
	// Task frame to its TaskDone, in seconds (α = 0.2).
	RTTEWMA float64
	// WireBytes counts shuffle payload bytes this worker reported fetching
	// over the wire — what actually crossed the network. RawBytes is the
	// encoded size the same payloads declare (their RawLen); blobs travel as
	// encoded, so the two are equal.
	WireBytes float64
	RawBytes  float64
	// FetchRetries counts shuffle fetch attempts beyond the first this
	// worker reported (transient faults absorbed by retry/backoff), and
	// FetchFallbacks counts partition fetches that degraded to the master's
	// canonical store after peer retries were exhausted.
	FetchRetries   int
	FetchFallbacks int
}

// Liveness is the master's view the transport line opens with: how many of
// its registry slots hold a connection, each slot's heartbeat age (or why it
// has none) rendered as "w0=0.1s w1=dead", and how many workers failed.
type Liveness struct {
	Alive, Slots, Failed int
	HBAge                string
}

// NewTransport returns an empty transport monitor whose line reads
// membership through liveness.
func NewTransport(liveness func(now time.Time) Liveness) *Transport {
	return &Transport{liveness: liveness, workers: make(map[int]*WorkerTransport)}
}

func (t *Transport) worker(id int) *WorkerTransport {
	w := t.workers[id]
	if w == nil {
		w = &WorkerTransport{}
		t.workers[id] = w
	}
	return w
}

// totals sums the per-worker counters (RTTEWMA excepted).
func (t *Transport) totals() (sum WorkerTransport) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, w := range t.workers {
		sum.Dispatches += w.Dispatches
		sum.Completions += w.Completions
		sum.WireBytes += w.WireBytes
		sum.RawBytes += w.RawBytes
		sum.FetchRetries += w.FetchRetries
		sum.FetchFallbacks += w.FetchFallbacks
	}
	return sum
}

// ObserveDispatch records a monotask dispatch to a worker: one per monotask
// a Task frame awaits a record for.
func (t *Transport) ObserveDispatch(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.worker(id).Dispatches++
}

// ObserveCompletion records a monotask's completion: wireBytes the shuffle
// payload bytes the worker pulled over the wire to feed the monotask,
// rawBytes their declared encoded size. Wire is what the network carried;
// raw is what the job logically moved. retries and fallbacks are the fetch
// degradation the worker reported for the monotask's inputs: transient
// faults the retry/backoff budget absorbed, and partitions that degraded to
// the master's canonical store after peer retries ran out.
func (t *Transport) ObserveCompletion(id int, wireBytes, rawBytes float64, retries, fallbacks int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.worker(id)
	w.Completions++
	w.WireBytes += wireBytes
	w.RawBytes += rawBytes
	w.FetchRetries += retries
	w.FetchFallbacks += fallbacks
}

// ObserveRTT records a task's round trip, Task frame to TaskDone, in
// seconds: once per task, however many monotasks it ran.
func (t *Transport) ObserveRTT(id int, rtt float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.worker(id)
	w.RTTEWMA = ewma(w.RTTEWMA, rtt)
	t.rttEWMA = ewma(t.rttEWMA, rtt)
}

// ewma folds sample into an α = 0.2 moving average that starts at its first
// sample.
func ewma(avg, sample float64) float64 {
	if avg == 0 {
		return sample
	}
	const alpha = 0.2
	return alpha*sample + (1-alpha)*avg
}

// FetchRetries returns the total reported shuffle fetch retries.
func (t *Transport) FetchRetries() int { return t.totals().FetchRetries }

// FetchFallbacks returns the total reported master-store fetch fallbacks.
func (t *Transport) FetchFallbacks() int { return t.totals().FetchFallbacks }

// ObserveServedBytes records shuffle payload bytes the master's own fetch
// server handed to workers: wire is what crossed the network, raw the
// declared encoded size of the same blobs.
func (t *Transport) ObserveServedBytes(wire, raw float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.servedBytes += wire
	t.servedRawBytes += raw
}

// Worker returns a copy of one worker's counters (zero value if unknown).
func (t *Transport) Worker(id int) WorkerTransport {
	t.mu.Lock()
	defer t.mu.Unlock()
	if w := t.workers[id]; w != nil {
		return *w
	}
	return WorkerTransport{}
}

// WireBytes returns the total shuffle payload bytes workers reported
// fetching over the wire.
func (t *Transport) WireBytes() float64 { return t.totals().WireBytes }

// RawBytes returns the declared encoded size of the payloads behind
// WireBytes — equal to it, since blobs travel as encoded.
func (t *Transport) RawBytes() float64 { return t.totals().RawBytes }

// ServedBytes returns the master fetch server's (wire, raw) served totals.
func (t *Transport) ServedBytes() (wire, raw float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.servedBytes, t.servedRawBytes
}

// StatsLine renders a one-line transport summary for periodic master logs.
func (t *Transport) StatsLine(now time.Time) string {
	l, sum := t.liveness(now), t.totals()
	t.mu.Lock()
	defer t.mu.Unlock()
	return fmt.Sprintf(
		"transport: workers=%d/%d hb_age[%s] rtt=%.1fms wire=%.2fMB raw=%.2fMB served=%.2fMB disp=%d comp=%d fail=%d retry=%d fallback=%d",
		l.Alive, l.Slots, l.HBAge, t.rttEWMA*1e3,
		sum.WireBytes/1e6, sum.RawBytes/1e6, t.servedBytes/1e6, sum.Dispatches, sum.Completions, l.Failed,
		sum.FetchRetries, sum.FetchFallbacks)
}
