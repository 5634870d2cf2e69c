package remote

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"ursa/internal/cpstate"
	"ursa/internal/metrics"
)

// The stats lines keep no copies: each number is read from its owner.

// members counts registry slots by the lifecycle the state records.
type members struct{ live, draining, drained, failed int }

// members reads the registry's lifecycle counts. Safe from any goroutine.
func (m *Master) members() (c members) {
	m.rec.read(func(st *cpstate.State) {
		for _, w := range st.Workers {
			switch {
			case w.Failed:
				c.failed++
			case w.Drained:
				c.drained++
			case w.Draining:
				c.draining++
			default:
				c.live++
			}
		}
	})
	return c
}

// joined counts mid-run joins: the slots past the registry this master was
// built with. Safe from any goroutine.
func (m *Master) joined() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.workers) - m.cfg.Workers
}

// connected reports whether any worker still holds a connection row.
func (m *Master) connected() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.ContainsFunc(m.workers, func(l *workerLink) bool { return l != nil })
}

// paused reports admission paused for lack of live capacity, the one
// definition the elastic line and the autoscaler read: the scheduler's own
// pause (jobs queued, no live worker memory) or, on an elastic cluster —
// which waits for a join instead of failing — no connection row left. Safe
// from any goroutine.
func (m *Master) paused() bool {
	return m.Sys.Core.Sched.AdmissionPaused() || m.cfg.Elastic && !m.connected()
}

// elasticLine renders the elastic stats line. Loop-owned.
func (m *Master) elasticLine() string {
	c := m.members()
	var ups, downs int
	if m.scaler != nil {
		ups, downs = m.scaler.Decisions()
	}
	corr, lo, hi := 0, 1.0, 1.0
	if m.corrector != nil {
		corr, lo, hi = m.corrector.Summary()
	}
	paused := 0
	if m.paused() {
		paused = 1
	}
	return fmt.Sprintf(
		"elastic: live=%d draining=%d drained=%d joined=%d failed=%d scale_up=%d scale_down=%d migrated=%d parts paused=%d corr=%d factor=[%.2f,%.2f]",
		c.live, c.draining, c.drained, m.joined(), c.failed, ups, downs, m.migrated, paused, corr, lo, hi)
}

// liveness is the transport line's membership: each registry slot with a
// connection row shows its heartbeat age, a failed or drained one its fate,
// and one that never registered or has not re-attached nothing. Safe from
// any goroutine (the final line is printed after Run).
func (m *Master) liveness(now time.Time) metrics.Liveness {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := metrics.Liveness{Slots: len(m.workers)}
	var ages []string
	for id, link := range m.workers {
		switch w := m.rec.worker(id); {
		case w.Failed:
			l.Failed++
			ages = append(ages, fmt.Sprintf("w%d=dead", id))
		case link != nil:
			l.Alive++
			ages = append(ages, fmt.Sprintf("w%d=%.1fs", id, link.silence(now).Seconds()))
		case w.Drained:
			ages = append(ages, fmt.Sprintf("w%d=drained", id))
		}
	}
	l.HBAge = strings.Join(ages, " ")
	return l
}
