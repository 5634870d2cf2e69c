package metrics

import (
	"fmt"
	"sync/atomic"
)

// Journal counts what only the master's journaling paths observe: events and
// bytes replayed at a takeover, TaskDone frames rejected by the at-most-once
// guard, tasks completed from replayed commits, workers re-attached
// under a new generation, and JobQuery answers of not-found. Its stats line
// prints them beside the facts other components own, read from those owners
// when the line is rendered. Safe for concurrent use.
type Journal struct {
	owned func() JournalOwned

	replayEvents  atomic.Int64
	replayBytes   atomic.Int64
	dupCommits    atomic.Int64
	precommits    atomic.Int64
	reattaches    atomic.Int64
	notFoundReads atomic.Int64
}

// JournalOwned is the part of the journal line that other components own:
// the generation and the events applied since the master was built (its
// control-plane state), the records appended, the snapshots completed on disk
// and the bytes not yet flushed (its on-disk journal), and whether journaling
// failed (its recorder).
type JournalOwned struct {
	Gen                            int64
	Events, Appended, Snaps, Depth int
	Failed                         bool
}

// NewJournal returns an empty journal monitor whose line reads the owned
// fields through owned.
func NewJournal(owned func() JournalOwned) *Journal { return &Journal{owned: owned} }

// ObserveReplay records a journal replay of n events and total bytes.
func (g *Journal) ObserveReplay(n, bytes int) {
	g.replayEvents.Add(int64(n))
	g.replayBytes.Add(int64(bytes))
}

// ObserveDupCommit records a TaskDone rejected by the at-most-once (seq,
// worker) guard.
func (g *Journal) ObserveDupCommit() { g.dupCommits.Add(1) }

// ObservePrecommit records a task completed from a replayed commit instead
// of re-execution.
func (g *Journal) ObservePrecommit() { g.precommits.Add(1) }

// Precommits returns the count of tasks completed from replayed commits.
func (g *Journal) Precommits() int { return int(g.precommits.Load()) }

// ObserveReattach records a worker re-attaching under a new generation.
func (g *Journal) ObserveReattach() { g.reattaches.Add(1) }

// Reattaches returns the worker re-attach count.
func (g *Journal) Reattaches() int { return int(g.reattaches.Load()) }

// ObserveNotFound records a JobQuery answered with a terminal not-found.
func (g *Journal) ObserveNotFound() { g.notFoundReads.Add(1) }

// NotFoundReads returns the terminal not-found answer count.
func (g *Journal) NotFoundReads() int { return int(g.notFoundReads.Load()) }

// StatsLine renders a one-line journaling summary for periodic master logs.
// Fields are only ever added at the end: bench/ parses the prefix.
func (g *Journal) StatsLine() string {
	o := g.owned()
	failed := 0
	if o.Failed {
		failed = 1
	}
	return fmt.Sprintf(
		"journal: gen=%d events=%d appended=%d replayed=%d (%d B) snaps=%d depth=%dB dup_commits=%d precommits=%d reattach=%d not_found=%d err=%d",
		o.Gen, o.Events, o.Appended, g.replayEvents.Load(), g.replayBytes.Load(),
		o.Snaps, o.Depth, g.dupCommits.Load(), g.precommits.Load(),
		g.reattaches.Load(), g.notFoundReads.Load(), failed)
}
