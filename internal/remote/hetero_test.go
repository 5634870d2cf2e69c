package remote

import (
	"reflect"
	"testing"
	"time"

	"ursa/internal/remote/agent"
	"ursa/internal/remote/workload"
	"ursa/internal/resource"
)

// TestHeteroLoopback runs a mixed-capacity loopback cluster: two stock
// agents plus one that advertises a smaller machine profile (one core at a
// fifth of the core rate) and is artificially slowed inside its timed
// execution section. The profile must reach the master's scheduling core
// verbatim before any dispatch, and the data plane must stay exact: result
// rows identical to direct in-process execution regardless of which machines
// ran what.
func TestHeteroLoopback(t *testing.T) {
	const (
		slowCores = 1
		slowRate  = 2e5 // vs the live default of 1e6 rows/s per core
	)
	cfg := Config{
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatMisses:   8,
	}
	lc, err := StartLocalClusterFunc(3, cfg, func(i int) agent.Config {
		if i != 2 {
			return agent.Config{}
		}
		return agent.Config{
			Cores:     slowCores,
			CoreRate:  slowRate,
			ExecDelay: 2 * time.Millisecond,
		}
	})
	if err != nil {
		t.Fatalf("starting hetero cluster: %v", err)
	}
	t.Cleanup(lc.Close)

	wcName, wcParams := workload.WordCount(workload.WordCountParams{Lines: 6000, InParts: 6, OutParts: 4})
	sqlName, sqlParams := workload.SQLAnalytics(workload.SQLParams{QueryIndex: 1, SalesRows: 1500})
	wcJob, err := lc.Master.Submit(wcName, wcParams)
	if err != nil {
		t.Fatalf("submit wordcount: %v", err)
	}
	sqlJob, err := lc.Master.Submit(sqlName, sqlParams)
	if err != nil {
		t.Fatalf("submit sql: %v", err)
	}
	runCluster(t, lc)

	// The advertised profile was applied on the control loop during
	// registration, strictly before any dispatch; with the run finished the
	// loop is quiescent, so the scheduling core can be read directly.
	slow := lc.Master.Sys.Core.Workers[2]
	if got := slow.Machine.Cores.Capacity(); got != slowCores {
		t.Errorf("slow worker scheduler cores = %v, want %v", got, slowCores)
	}
	if got := slow.NominalRate(resource.CPU); got != slowRate*slowCores {
		t.Errorf("slow worker nominal CPU rate = %v, want %v", got, slowRate*slowCores)
	}
	if fast := lc.Master.Sys.Core.Workers[0]; fast.NominalRate(resource.CPU) <= slow.NominalRate(resource.CPU) {
		t.Errorf("unprofiled worker nominal CPU rate %v not above slow worker's %v",
			fast.NominalRate(resource.CPU), slow.NominalRate(resource.CPU))
	}

	gotRows, err := wcJob.ResultRows()
	if err != nil {
		t.Fatalf("wordcount result: %v", err)
	}
	if want := directRows(t, wcName, wcParams); !reflect.DeepEqual(sortedStrings(gotRows), sortedStrings(want)) {
		t.Fatalf("wordcount rows diverge from direct execution: got %d want %d rows",
			len(gotRows), len(want))
	}
	sqlGot, err := sqlJob.ResultRows()
	if err != nil {
		t.Fatalf("sql result: %v", err)
	}
	if want := directRows(t, sqlName, sqlParams); !reflect.DeepEqual(stringify(sqlGot), stringify(want)) {
		t.Fatalf("sql rows diverge from direct execution:\ngot:  %v\nwant: %v",
			stringify(sqlGot), stringify(want))
	}
	if n := lc.Master.members().failed; n != 0 {
		t.Fatalf("unexpected worker failures: %d", n)
	}
}
