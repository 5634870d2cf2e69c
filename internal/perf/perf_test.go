package perf

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestMeasureAndWriteJSON(t *testing.T) {
	// Cheap scenario: measure a trivial op so the test stays fast; the real
	// scenarios are exercised by the package benchmarks and ursa-bench -perf.
	b := measure(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = i * i
		}
	}, 4, "ops/s")
	if b.NsPerOp < 0 || b.Unit != "ops/s" {
		t.Fatalf("bad benchmark record: %+v", b)
	}
	if b.NsPerOp > 0 && b.Throughput <= 0 {
		t.Fatalf("throughput not derived: %+v", b)
	}

	rep := &Report{Schema: "ursa-bench-core/v1", PlacementTick: b}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded["schema"] != "ursa-bench-core/v1" {
		t.Fatalf("schema missing: %v", decoded)
	}
	if _, ok := decoded["placement_tick"].(map[string]any); !ok {
		t.Fatalf("placement_tick missing: %v", decoded)
	}
}

// TestLoadIngestRejectsOldSchema: a BENCH_ingest.json from before the naive
// arm was removed must be refused with the command that regenerates it, not
// silently read as a report with no baseline.
func TestLoadIngestRejectsOldSchema(t *testing.T) {
	old := `{"schema":"ursa-bench-ingest/v1","batched":{"subs_per_sec":21758},"naive":{"subs_per_sec":1112},"speedup_vs_naive":19.5}`
	if _, err := LoadIngest(strings.NewReader(old)); err == nil || !strings.Contains(err.Error(), "make bench-ingest") {
		t.Fatalf("v1 document: err = %v, want a refusal naming `make bench-ingest`", err)
	}
	cur := &IngestReport{Schema: ingestSchema, Batched: IngestArm{SubsPerSec: 1}}
	var buf bytes.Buffer
	if err := cur.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIngest(&buf); err != nil {
		t.Fatalf("current document refused: %v", err)
	}
}
