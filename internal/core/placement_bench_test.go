package core

import "testing"

// BenchmarkPlacementTick measures one scheduler placement pass over a
// saturated pool: 64 workers × 32 stages × 16 tasks. This is the hot path
// that bounds how small the scheduling interval can be (§4.2.2), and the
// allocs/op number is the headline figure tracked in BENCH_core.json.
func BenchmarkPlacementTick(b *testing.B) {
	pb := NewPlacementBench(64, 32, 16)
	if pb.Tick() == 0 {
		b.Fatal("placement pass placed nothing; fixture is not exercising the hot path")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.Tick()
	}
}

// BenchmarkPlacementTickSmall is the same pass at the paper's testbed scale
// (20 workers), closer to what one 100 ms interval really costs.
func BenchmarkPlacementTickSmall(b *testing.B) {
	pb := NewPlacementBench(20, 8, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.Tick()
	}
}

// benchTickAt runs the placement tick benchmark at a given cluster scale
// with CandidateWorkers = k (0: the exact scan). The exact/top-K pair at
// 1024 workers feeds the EXPERIMENTS.md cluster-scale table.
func benchTickAt(b *testing.B, workers, stages, tasks, k int) {
	b.Helper()
	pb := NewPlacementBench(workers, stages, tasks)
	pb.Configure(func(c *Config) { c.CandidateWorkers = k })
	if pb.Tick() == 0 {
		b.Fatal("placement pass placed nothing; fixture is not exercising the hot path")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.Tick()
	}
}

// BenchmarkPlacementTickMediumExact / ...Medium measure a 256-worker pool.
func BenchmarkPlacementTickMediumExact(b *testing.B) { benchTickAt(b, 256, 64, 16, 0) }
func BenchmarkPlacementTickMedium(b *testing.B)      { benchTickAt(b, 256, 64, 16, 16) }

// BenchmarkPlacementTickLargeExact is the exact scan at cluster scale: 1024
// workers × 256 stages × 16 tasks.
func BenchmarkPlacementTickLargeExact(b *testing.B) { benchTickAt(b, 1024, 256, 16, 0) }

// BenchmarkPlacementTickLarge is the same pool scored against the top 16
// candidate workers per task.
func BenchmarkPlacementTickLarge(b *testing.B) { benchTickAt(b, 1024, 256, 16, 16) }
