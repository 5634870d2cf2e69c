package core

import "testing"

// BenchmarkPlacementTick measures one scheduler placement pass over a
// saturated pool: 64 workers × 32 stages × 16 tasks. This is the hot path
// that bounds how small the scheduling interval can be (§4.2.2); bench/iso.go
// reports the same scenario as core.placement_tick_us and _allocs.
func BenchmarkPlacementTick(b *testing.B) { benchTick(b, NewPlacementBench(64, 32, 16)) }

// BenchmarkPlacementTickHetero is the same pool on a mixed-capacity fleet (a
// quarter of the workers smaller and contended) with the interference
// penalty on: what the flag costs on the hot path.
func BenchmarkPlacementTickHetero(b *testing.B) { benchTick(b, heteroPenaltyBench()) }

func heteroPenaltyBench() *PlacementBench {
	pb := NewPlacementBenchHetero(64, 32, 16)
	pb.Configure(func(c *Config) { c.InterferencePenalty = true })
	return pb
}

// BenchmarkPlacementTickSaturated is a pass in the regime a loaded simulation
// runs in: the paper's 20 workers, 18 of them with no CPU headroom, and a
// deep pool (32 stages × 64 tasks) of which only a handful fit anywhere.
// ...Exhaustive is the same pass under the reference placer, which scores
// every task against every worker: what the pass cost before witness pruning.
func BenchmarkPlacementTickSaturated(b *testing.B) { benchTick(b, saturatedBench()) }

func saturatedBench() *PlacementBench { return NewPlacementBenchSaturated(20, 32, 64) }

func BenchmarkPlacementTickSaturatedExhaustive(b *testing.B) {
	pb := saturatedBench()
	pb.Configure(fullRebuild)
	benchTick(b, pb)
}

func benchTick(b *testing.B, pb *PlacementBench) {
	b.Helper()
	if pb.Tick() == 0 {
		b.Fatal("placement pass placed nothing; fixture is not exercising the hot path")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.Tick()
	}
}

// TestPlacementTickDoesNotAllocate holds the steady-state placement pass to
// zero heap allocations: every scratch buffer of the pass is carried on the
// PlaceContext, and the first Tick sizes them. The tick runs every
// SchedInterval and after every batch of events on the live path, so one
// allocation per stage or per worker here is garbage at that rate.
func TestPlacementTickDoesNotAllocate(t *testing.T) {
	for name, pb := range map[string]*PlacementBench{
		"uniform":        NewPlacementBench(64, 32, 16),
		"hetero+penalty": heteroPenaltyBench(),
		"saturated":      saturatedBench(),
	} {
		if pb.Tick() == 0 {
			t.Fatalf("%s: placement pass placed nothing", name)
		}
		if a := testing.AllocsPerRun(10, func() { pb.Tick() }); a != 0 {
			t.Errorf("%s: %v allocs per tick, want 0", name, a)
		}
	}
}

// BenchmarkPlacementTickSmall is the same pass at the paper's testbed scale
// (20 workers), closer to what one 100 ms interval really costs.
func BenchmarkPlacementTickSmall(b *testing.B) { benchTick(b, NewPlacementBench(20, 8, 16)) }

// BenchmarkPlacementTickMedium and ...Large are the idle-worker pass at 256
// and at 1024 workers (64 and 256 stages of 16 tasks): the record of how the
// scan grows with the worker count (EXPERIMENTS.md, cluster-scale table).
func BenchmarkPlacementTickMedium(b *testing.B) { benchTick(b, NewPlacementBench(256, 64, 16)) }
func BenchmarkPlacementTickLarge(b *testing.B)  { benchTick(b, NewPlacementBench(1024, 256, 16)) }
