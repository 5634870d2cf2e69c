package dag

import (
	"runtime"
	"testing"
)

// wideStageTask builds the reduceByKey job with parts map and reduce
// partitions, completes the map stage, and returns a reduce task: its shuffle
// monotask predicts one partition of the shuffled dataset and its deser
// monotask reads that prediction back.
func wideStageTask(parts int) (*Plan, *Task) {
	g, _ := buildShuffleJob(parts, parts, 100)
	p := g.MustBuild()
	var reduce *Task
	for _, task := range p.InitialReady() {
		mt := task.ReadyMonotasks()[0]
		p.Prepare(mt)
		for _, nt := range p.Complete(mt).NewReadyTasks {
			reduce = nt
		}
	}
	return p, reduce
}

// estimateAllocBytes is the mean number of bytes one Estimate call on a reduce
// task of a parts-partition stage allocates.
func estimateAllocBytes(parts int) float64 {
	p, task := wideStageTask(parts)
	p.Estimate(task, 1.5) // the plan's scratch grows on first use
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		p.Estimate(task, 1.5)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / calls
}

// TestEstimateAllocationIndependentOfPartitions: what one Estimate call
// allocates must not grow with the width of the stage. A task predicts the
// handful of partitions its own monotasks write; remembering them in a row
// per dataset cost 8 KB per dataset per call at 1 024 partitions against 128
// bytes at 16, and was three quarters of everything a simulated TPC-H run
// allocated. Counts bytes, not time, so it holds on any hardware.
func TestEstimateAllocationIndependentOfPartitions(t *testing.T) {
	narrow, wide := estimateAllocBytes(16), estimateAllocBytes(1024)
	if wide > 2*narrow {
		t.Fatalf("Estimate allocates %.0f bytes per call on a 1024-partition stage, %.0f on a 16-partition stage; want within 2x",
			wide, narrow)
	}
}

func BenchmarkEstimateWideStage(b *testing.B) {
	p, task := wideStageTask(1024)
	p.Estimate(task, 1.5) // the plan's scratch grows on first use
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Estimate(task, 1.5)
	}
}
