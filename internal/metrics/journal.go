package metrics

import (
	"fmt"
	"sync"
)

// Journal aggregates control-plane journaling and failover observability:
// event append/replay counters, snapshot cadence, the unsynced journal
// depth, and the at-most-once guard counters that PR 4's commit discipline
// extends across generations. Safe for concurrent use — events are recorded
// from handshake goroutines and the control loop alike.
type Journal struct {
	mu sync.Mutex

	gen           int64 // current master generation
	events        int   // events applied to the live state machine
	appended      int   // events appended to the on-disk journal
	replayEvents  int   // events replayed at open (takeover)
	replayBytes   int   // snapshot + event bytes replayed at open
	snapshots     int   // snapshots taken
	pendingDepth  int   // latest observed unsynced journal bytes
	dupCommits    int   // Complete frames rejected by the at-most-once guard
	precommits    int   // monotasks short-circuited from replayed commits
	reattaches    int   // workers re-attached under a new generation
	notFoundReads int   // JobQuery answered with StateNotFound
	failed        int   // 1 once the on-disk journal reported an error (sticky)
}

// NewJournal returns an empty journal monitor.
func NewJournal() *Journal { return &Journal{} }

// SetGeneration records the master generation in force.
func (g *Journal) SetGeneration(gen int64) {
	g.mu.Lock()
	g.gen = gen
	g.mu.Unlock()
}

// Generation returns the recorded master generation.
func (g *Journal) Generation() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gen
}

// ObserveEvent records one event applied to the state machine; journaled
// reports whether it was also appended to the on-disk journal.
func (g *Journal) ObserveEvent(journaled bool) {
	g.mu.Lock()
	g.events++
	if journaled {
		g.appended++
	}
	g.mu.Unlock()
}

// ObserveError records that the on-disk journal failed: events are still
// applied, none is appended any more.
func (g *Journal) ObserveError() {
	g.mu.Lock()
	g.failed = 1
	g.mu.Unlock()
}

// ObserveReplay records a journal replay of n events and total bytes.
func (g *Journal) ObserveReplay(n, bytes int) {
	g.mu.Lock()
	g.replayEvents += n
	g.replayBytes += bytes
	g.mu.Unlock()
}

// ObserveSnapshot records one snapshot taken.
func (g *Journal) ObserveSnapshot() {
	g.mu.Lock()
	g.snapshots++
	g.mu.Unlock()
}

// ObservePendingDepth records the latest unsynced journal depth in bytes.
func (g *Journal) ObservePendingDepth(n int) {
	g.mu.Lock()
	g.pendingDepth = n
	g.mu.Unlock()
}

// ObserveDupCommit records a Complete frame rejected by the at-most-once
// (jobID, mtID, seq) guard.
func (g *Journal) ObserveDupCommit() {
	g.mu.Lock()
	g.dupCommits++
	g.mu.Unlock()
}

// DupCommits returns the duplicate-commit rejection count.
func (g *Journal) DupCommits() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.dupCommits
}

// ObservePrecommit records a monotask satisfied from a replayed commit
// instead of re-execution.
func (g *Journal) ObservePrecommit() {
	g.mu.Lock()
	g.precommits++
	g.mu.Unlock()
}

// Precommits returns the replay short-circuit count.
func (g *Journal) Precommits() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.precommits
}

// ObserveReattach records a worker re-attaching under a new generation.
func (g *Journal) ObserveReattach() {
	g.mu.Lock()
	g.reattaches++
	g.mu.Unlock()
}

// Reattaches returns the worker re-attach count.
func (g *Journal) Reattaches() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.reattaches
}

// ObserveNotFound records a JobQuery answered with a terminal not-found.
func (g *Journal) ObserveNotFound() {
	g.mu.Lock()
	g.notFoundReads++
	g.mu.Unlock()
}

// NotFoundReads returns the terminal not-found answer count.
func (g *Journal) NotFoundReads() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.notFoundReads
}

// StatsLine renders a one-line journaling summary for periodic master logs.
// Fields are only ever added at the end: bench/ parses the prefix.
func (g *Journal) StatsLine() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return fmt.Sprintf(
		"journal: gen=%d events=%d appended=%d replayed=%d (%d B) snaps=%d depth=%dB dup_commits=%d precommits=%d reattach=%d not_found=%d err=%d",
		g.gen, g.events, g.appended, g.replayEvents, g.replayBytes,
		g.snapshots, g.pendingDepth, g.dupCommits, g.precommits,
		g.reattaches, g.notFoundReads, g.failed)
}
