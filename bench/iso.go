package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"ursa/internal/core"
	"ursa/internal/cpstate"
	"ursa/internal/eventloop"
	"ursa/internal/journal"
	"ursa/internal/localrt"
	rworkload "ursa/internal/remote/workload"
	"ursa/internal/sqlmini"
	"ursa/internal/wire"
)

// isoBudget bounds each isolated measurement; the whole set stays near two
// seconds so a traced run fits the contract's time cap.
const isoBudget = 150 * time.Millisecond

// sink keeps measured calls from being optimised away.
var sink any

// timeIt calls fn repeatedly for about isoBudget (at least three times)
// and returns the mean time and heap allocations per call.
func timeIt(fn func()) (perCall time.Duration, allocs float64) {
	fn() // warm caches and pools
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := 0
	for n < 3 || time.Since(start) < isoBudget {
		fn()
		n++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return elapsed / time.Duration(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// isoJob times single public calls of the layers a job passes through, in
// isolation, with the workload's own params. These are the numbers a change
// to one layer moves first; the interaction table in the README says which
// end-to-end metric each should move, and on which workload.
func isoJob(name string, params []byte, v map[string]float64) {
	// workload / dag / sqlmini: what a submission pays before the scheduler
	// sees it, once on the master and once on every agent.
	d, _ := timeIt(func() { sink, _ = rworkload.Build(name, params) })
	v["workload.build_us"] = us(d)
	bj, err := rworkload.Build(name, params)
	if err != nil {
		return
	}
	d, _ = timeIt(func() { sink, _ = bj.Spec.Graph.Build() })
	v["dag.plan_build_us"] = us(d)
	v["sqlmini.compile_us"] = sqlCompileUs(name, bj)

	// localrt: the compute floor, and the codec on one real partition.
	var direct []float64
	var blobRows []localrt.Row
	for start := time.Now(); len(direct) < 3 || time.Since(start) < 2*isoBudget; {
		job, err := rworkload.Build(name, params)
		if err != nil {
			return
		}
		rt := localrt.New(job.Plan)
		for _, in := range job.Inputs {
			rt.SetInput(in.Dataset, in.Rows)
		}
		t0 := time.Now()
		if err := rt.Run(); err != nil {
			return
		}
		direct = append(direct, ms(time.Since(t0)))
		if blobRows == nil {
			// The largest partition any monotask produced.
			for _, ds := range job.Plan.Graph.Datasets() {
				if ds.Creator == nil {
					continue
				}
				for _, part := range rt.Partitions(ds) {
					if len(part) > len(blobRows) {
						blobRows = part
					}
				}
			}
		}
	}
	v["localrt.direct_run_ms"] = median(direct)
	codec := rworkload.Codec{}
	blob, flags, rawLen, err := codec.EncodeBlob(blobRows)
	if err == nil {
		d, _ = timeIt(func() { sink, _, _, _ = codec.EncodeBlob(blobRows) })
		v["localrt.encode_blob_us"] = us(d)
		d, _ = timeIt(func() { sink, _ = codec.DecodeBlob(blob, flags, rawLen) })
		v["localrt.decode_blob_us"] = us(d)
	}

}

// isoGeneric times the layers whose cost does not depend on the workload's
// params: the wire codec, the journal and state machine, one placement tick
// over a saturated pool, and the event loop's timer heap.
func isoGeneric(outDir string, v map[string]float64) {
	wireFrames(v)
	journalAndState(outDir, v)

	pb := core.NewPlacementBench(64, 32, 16)
	d, allocs := timeIt(func() { sink = pb.Tick() })
	v["core.placement_tick_us"] = us(d)
	v["core.placement_tick_allocs"] = allocs

	const timers = 200000
	loop := eventloop.New()
	fired := 0
	t0 := time.Now()
	for i := 0; i < timers; i++ {
		loop.After(eventloop.Duration(i%1000), func() { fired++ })
	}
	loop.Run()
	v["eventloop.timers_per_s"] = float64(fired) / time.Since(t0).Seconds()
}

// sqlCompileUs times Parse+Compile of the job's query over its own input
// tables, rebuilt from the built job's input rows under the sql_analytics
// schema. Non-SQL workloads report 0.
func sqlCompileUs(name string, bj *rworkload.BuiltJob) float64 {
	if name != "sql_analytics" || len(bj.Inputs) != 2 {
		return 0
	}
	db := sqlmini.NewDB()
	for _, in := range bj.Inputs {
		t := &sqlmini.Table{Name: "sales", Cols: []string{"order_id", "product_id", "region", "amount"}}
		if len(in.Rows) > 0 && len(in.Rows[0].([]sqlmini.Value)) == 2 {
			t = &sqlmini.Table{Name: "products", Cols: []string{"id", "category"}}
		}
		for _, r := range in.Rows {
			t.Rows = append(t.Rows, r.([]sqlmini.Value))
		}
		db.Add(t)
	}
	compile := func() error {
		q, err := sqlmini.Parse(rworkload.SQLQueries[1])
		if err != nil {
			return err
		}
		sink, err = sqlmini.Compile(db, q)
		return err
	}
	if err := compile(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: sqlmini.compile_us not measured:", err)
		return 0
	}
	d, _ := timeIt(func() { _ = compile() })
	return us(d)
}

// wireFrames times the codec on the two frames every monotask costs: the
// Dispatch the master sends and the Complete the agent answers with.
func wireFrames(v map[string]float64) {
	addr := "127.0.0.1:41234"
	msgs := []wire.Msg{
		wire.Dispatch{JobID: 7, MTID: 3, Seq: 99, Fetches: []wire.FetchSpec{
			{DatasetID: 1, Part: 0, Origin: 0, Addr: addr}, {DatasetID: 1, Part: 1, Origin: 1, Addr: addr},
		}},
		wire.Complete{JobID: 7, MTID: 3, Seq: 99, Seconds: 1e-4, FetchedWireBytes: 512, FetchedRawBytes: 512,
			Writes: []wire.PartWrite{
				{DatasetID: 2, Part: 0, RawLen: 256, Rows: make([]byte, 256)},
				{DatasetID: 2, Part: 1, RawLen: 256, Rows: make([]byte, 256)},
			}},
	}
	var frames []byte
	for _, m := range msgs {
		frames = wire.AppendFrame(frames, m)
	}
	buf := make([]byte, 0, 4096)
	d, _ := timeIt(func() {
		for i := 0; i < 100; i++ {
			buf = buf[:0]
			for _, m := range msgs {
				buf = wire.AppendFrame(buf, m)
			}
		}
	})
	v["wire.frame_encode_ns"] = float64(d.Nanoseconds()) / 200
	rd := bytes.NewReader(frames)
	var rbuf []byte
	d, _ = timeIt(func() {
		for i := 0; i < 100; i++ {
			rd.Reset(frames)
			for range msgs {
				typ, payload, nb, err := wire.ReadFrameInto(rd, rbuf, 0)
				rbuf = nb
				if err == nil {
					sink, _ = wire.Decode(typ, payload)
				}
			}
		}
	})
	v["wire.frame_decode_ns"] = float64(d.Nanoseconds()) / 200
}

// journalAndState times one journal append (group commit every 2 ms, as the
// master configures it) and one state-machine Apply over the event mix a
// seven-monotask job produces.
func journalAndState(outDir string, v map[string]float64) {
	var events []cpstate.Event
	for job := int64(1); job <= 64; job++ {
		events = append(events,
			cpstate.JobSubmitted{JobID: job, Workload: "micro", Params: []byte(`{"Rows":64,"MemEstimate":1}`)},
			cpstate.JobAdmitted{JobID: job, Reserved: 1})
		for mt := int32(0); mt < 7; mt++ {
			events = append(events,
				cpstate.Placed{JobID: job, MTID: mt, Worker: mt % 2, Seq: uint64(job*8) + uint64(mt)},
				cpstate.Commit{JobID: job, MTID: mt, Worker: mt % 2, Seq: uint64(job*8) + uint64(mt), Seconds: 1e-4,
					Writes: []cpstate.CommitWrite{{DS: mt, Part: 0}}})
		}
		events = append(events, cpstate.JobFinished{JobID: job})
	}
	d, _ := timeIt(func() {
		st := cpstate.New()
		cpstate.Apply(st, cpstate.Generation{Gen: 1})
		cpstate.Apply(st, cpstate.WorkerRegistered{Worker: 0, Cores: 2})
		cpstate.Apply(st, cpstate.WorkerRegistered{Worker: 1, Cores: 2})
		for _, ev := range events {
			cpstate.Apply(st, ev)
		}
		sink = st
	})
	v["cpstate.apply_ns"] = float64(d.Nanoseconds()) / float64(len(events)+3)

	v["journal.append_us"] = 0
	dir, err := os.MkdirTemp(outDir, "iso-journal-")
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	jnl, _, err := journal.Open(dir, journal.Options{SyncInterval: 2 * time.Millisecond})
	if err != nil {
		return
	}
	defer jnl.Close()
	var payloads [][]byte
	for _, ev := range events {
		payloads = append(payloads, cpstate.AppendEvent(nil, ev))
	}
	d, _ = timeIt(func() {
		for _, p := range payloads {
			if _, err := jnl.Append(p); err != nil {
				return
			}
		}
		_ = jnl.Sync() // the group commit the appends were waiting for
	})
	v["journal.append_us"] = us(d) / float64(len(payloads))
}
