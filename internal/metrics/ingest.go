package metrics

import (
	"fmt"
	"sync"
)

// Ingest aggregates front-door observability for the master's submission
// path: intake and admission counters, status-stream drops, and the
// tenant-fairness gauge. Safe for concurrent use — client read goroutines
// record rejections and drops off the control loop while it records
// submissions. Admission passes are counted where they run, in the live
// system, and read through passes.
type Ingest struct {
	mu     sync.Mutex
	passes func() (passes, jobs int)

	clients     int // client connections ever accepted
	submissions int // SubmitJob frames accepted (acked with a job ID)
	rejected    int // SubmitJob frames rejected (intake full, draining, bad workload)
	cancels     int // CancelJob frames that cancelled a queued job
	statusDrops int // JobStatus frames dropped on full client send queues

	// shareErr is the latest sampled per-tenant share error (see
	// core.ShareError); shareErrMax the worst observed.
	shareErr    float64
	shareErrMax float64
}

// NewIngest returns an empty ingest monitor whose admission-pass figures
// are read from passes.
func NewIngest(passes func() (passes, jobs int)) *Ingest { return &Ingest{passes: passes} }

// ObserveClient records an accepted client connection.
func (g *Ingest) ObserveClient() {
	g.mu.Lock()
	g.clients++
	g.mu.Unlock()
}

// ObserveSubmission records an accepted (acked) submission.
func (g *Ingest) ObserveSubmission() {
	g.mu.Lock()
	g.submissions++
	g.mu.Unlock()
}

// ObserveRejection records a rejected submission.
func (g *Ingest) ObserveRejection() {
	g.mu.Lock()
	g.rejected++
	g.mu.Unlock()
}

// ObserveCancel records a successful queued-job cancellation.
func (g *Ingest) ObserveCancel() {
	g.mu.Lock()
	g.cancels++
	g.mu.Unlock()
}

// ObserveStatusDrop records JobStatus frames dropped because a subscriber's
// bounded send queue was full.
func (g *Ingest) ObserveStatusDrop(n int) {
	g.mu.Lock()
	g.statusDrops += n
	g.mu.Unlock()
}

// ObserveShareError records a sampled per-tenant share error.
func (g *Ingest) ObserveShareError(e float64) {
	g.mu.Lock()
	g.shareErr = e
	if e > g.shareErrMax {
		g.shareErrMax = e
	}
	g.mu.Unlock()
}

// Submissions returns the accepted-submission count.
func (g *Ingest) Submissions() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.submissions
}

// StatusDrops returns the dropped JobStatus frame count.
func (g *Ingest) StatusDrops() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.statusDrops
}

// ShareError returns the (latest, max) sampled per-tenant share error.
func (g *Ingest) ShareError() (last, max float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.shareErr, g.shareErrMax
}

// BatchStats returns (admission passes run, jobs they covered). The mean
// batch size — jobs/batches — is how many submissions one admission pass
// amortizes over.
func (g *Ingest) BatchStats() (batches, jobs int) { return g.passes() }

// StatsLine renders a one-line front-door summary for periodic master logs.
func (g *Ingest) StatsLine() string {
	batches, jobs := g.passes()
	meanBatch := 0.0
	if batches > 0 {
		meanBatch = float64(jobs) / float64(batches)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return fmt.Sprintf(
		"ingest: clients=%d subs=%d rej=%d cancel=%d batches=%d (mean %.1f jobs) status_drops=%d share_err=%.3f (max %.3f)",
		g.clients, g.submissions, g.rejected, g.cancels, batches, meanBatch,
		g.statusDrops, g.shareErr, g.shareErrMax)
}
