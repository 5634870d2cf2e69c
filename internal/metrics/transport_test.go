package metrics

import (
	"strings"
	"testing"
	"time"
)

// TestTransportFetchDegradation pins the degradation counters the chaos
// tests read: per-worker and aggregate retry/fallback totals, surfaced in
// StatsLine beside the membership the master supplies.
func TestTransportFetchDegradation(t *testing.T) {
	tr := NewTransport(func(time.Time) Liveness {
		return Liveness{Alive: 1, Slots: 2, Failed: 1, HBAge: "w0=dead w2=0.1s"}
	})
	tr.ObserveCompletion(2, 0.01, 0, 0, 3, 1)
	tr.ObserveCompletion(2, 0.01, 0, 0, 2, 0)
	tr.ObserveCompletion(5, 0.01, 0, 0, 0, 0) // an undegraded completion counts none
	if got := tr.FetchRetries(); got != 5 {
		t.Fatalf("FetchRetries = %d, want 5", got)
	}
	if got := tr.FetchFallbacks(); got != 1 {
		t.Fatalf("FetchFallbacks = %d, want 1", got)
	}
	w := tr.Worker(2)
	if w.FetchRetries != 5 || w.FetchFallbacks != 1 {
		t.Fatalf("worker counters = %d/%d, want 5/1", w.FetchRetries, w.FetchFallbacks)
	}
	if w5 := tr.Worker(5); w5.FetchRetries != 0 || w5.FetchFallbacks != 0 {
		t.Fatalf("undegraded completion counted degradation: %+v", w5)
	}
	line := tr.StatsLine(time.Now())
	for _, want := range []string{"workers=1/2 hb_age[w0=dead w2=0.1s]", "fail=1", "retry=5", "fallback=1"} {
		if !strings.Contains(line, want) {
			t.Fatalf("StatsLine should contain %q: %q", want, line)
		}
	}
}
