package experiments

import (
	"strconv"
	"testing"

	"ursa/internal/metrics"
)

func cell(rep *Report, row, col int) float64 {
	v, err := strconv.ParseFloat(rep.Rows[row][col], 64)
	if err != nil {
		return -1
	}
	return v
}

func smoke(t *testing.T, id string, scale float64) *Report {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	rep := e.Run(Options{Scale: scale, Seed: 7})
	if rep == nil || len(rep.Rows) == 0 {
		t.Fatalf("%s: empty report", id)
	}
	for _, row := range rep.Rows {
		if len(row) != len(rep.Header) {
			t.Fatalf("%s: row width %d != header %d", id, len(row), len(rep.Header))
		}
	}
	return rep
}

func TestAllRegistered(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
		if e.Run == nil || e.Paper == "" || e.Desc == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
		if got, ok := Lookup(e.ID); !ok || got.Paper != e.Paper || got.Desc != e.Desc {
			t.Errorf("Lookup(%q) = %q, %v; want the registered %q", e.ID, got.Paper, ok, e.Paper)
		}
	}
	if _, ok := Lookup("tabel4"); ok {
		t.Error(`Lookup("tabel4") found an experiment`)
	}
	for _, want := range []string{"fig1", "table1", "table2", "fig4", "table3",
		"fig5", "table4", "table5", "sec52net", "fig6", "fig7", "table6",
		"fig8", "fig9", "fig10"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}

func TestTable2ShapeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	rep := smoke(t, "table2", 0.15) // 30 jobs
	// Rows: Ursa-EJF, Ursa-SRJF, Y+S, Y+T; cols: 1=makespan 2=avgJCT 3=UEcpu.
	ejfMk, ysMk, ytMk := cell(rep, 0, 1), cell(rep, 2, 1), cell(rep, 3, 1)
	if !(ejfMk < ysMk && ysMk < ytMk) {
		t.Errorf("makespan ordering broken: ursa=%v y+s=%v y+t=%v", ejfMk, ysMk, ytMk)
	}
	ejfUE, ysUE, ytUE := cell(rep, 0, 3), cell(rep, 2, 3), cell(rep, 3, 3)
	if !(ejfUE > ysUE && ysUE > ytUE) {
		t.Errorf("UEcpu ordering broken: ursa=%v y+s=%v y+t=%v", ejfUE, ysUE, ytUE)
	}
	if ejfUE < 95 {
		t.Errorf("Ursa UEcpu = %v, want ~99+", ejfUE)
	}
	srjfJCT, ejfJCT := cell(rep, 1, 2), cell(rep, 0, 2)
	if srjfJCT > ejfJCT*1.15 {
		t.Errorf("SRJF avgJCT (%v) much worse than EJF (%v)", srjfJCT, ejfJCT)
	}
	if rep.Series["Ursa-EJF"] == nil || rep.Series["Y+S"] == nil {
		t.Error("missing utilization series")
	}
}

// TestTable3ShapeSmall asserts the Table 3 rows that held on every seed from
// 1 to 10 at a tenth of the paper's scale: Ursa keeps the CPU it allocates
// busy (UEcpu above 99 under both policies) where Y+S idles about half of it
// (below 60), and SRJF's average JCT beats Y+S's. Makespan and SRJF against
// EJF are not asserted: each loses on one of those seeds (EXPERIMENTS.md,
// "Table 3").
func TestTable3ShapeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	rep := smoke(t, "table3", 0.1) // 20 jobs
	// Rows: Ursa-EJF, Ursa-SRJF, Y+S; cols: 1=makespan 2=avgJCT 3=UEcpu.
	for row := 0; row < 2; row++ {
		if ue := cell(rep, row, 3); ue <= 99 {
			t.Errorf("%s UEcpu = %v, want above 99", rep.Rows[row][0], ue)
		}
	}
	if ue := cell(rep, 2, 3); ue >= 60 {
		t.Errorf("Y+S UEcpu = %v, want below 60", ue)
	}
	if srjf, ys := cell(rep, 1, 2), cell(rep, 2, 2); !(srjf < ys) {
		t.Errorf("Ursa-SRJF avgJCT %v not below Y+S's %v", srjf, ys)
	}
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	rep := smoke(t, "table1", 1)
	// Spark row has 4 numeric entries < 100; Tez has N/A for LR/CC.
	if rep.Rows[1][1] != "N/A" || rep.Rows[1][2] != "N/A" {
		t.Errorf("Tez LR/CC should be N/A: %v", rep.Rows[1])
	}
	for col := 1; col <= 4; col++ {
		s := rep.Rows[0][col]
		v, err := strconv.ParseFloat(s[:len(s)-1], 64)
		if err != nil || v <= 0 || v >= 100 {
			t.Errorf("Spark UE col %d = %q, want (0,100)", col, s)
		}
	}
}

// TestTable1HeteroReportShape checks the report contains the two rows
// (contended, uncontended reference) and that the uncontended reference is
// at least as good as the contended run on makespan and average JCT.
func TestTable1HeteroReportShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	rep := smoke(t, "table1-hetero", 1)
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Rows))
	}
	for _, c := range []struct {
		col  int
		name string
	}{{1, "makespan"}, {2, "avgJCT"}} {
		if ref, contended := cell(rep, 1, c.col), cell(rep, 0, c.col); ref <= 0 || ref > contended {
			t.Errorf("uncontended %s %v, want positive and at most contended %v", c.name, ref, contended)
		}
	}
}

func TestFig9CloseToExpected(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	rep := smoke(t, "fig9", 0.2) // 8 Type-1 jobs
	// Ratios (col 3) should be near 1: Ursa achieves near-ideal JCT.
	for i := range rep.Rows {
		r := cell(rep, i, 3)
		if r < 0.6 || r > 1.8 {
			t.Errorf("job %d actual/expected = %v, want ≈1", i, r)
		}
	}
}

func TestTable6Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	rep := smoke(t, "table6", 0.3)
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (JO, MO, JO+MO)", len(rep.Rows))
	}
}

func TestFig6BottleneckShifts(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	rep := smoke(t, "fig6", 0.25)
	// 1 Gbps: network mean util should exceed CPU; 10 Gbps: CPU exceeds net.
	cpu1, net1 := cell(rep, 0, 2), cell(rep, 0, 3)
	cpu10, net10 := cell(rep, 2, 2), cell(rep, 2, 3)
	if net1 < cpu1 {
		t.Errorf("1Gbps: net %.1f%% should exceed cpu %.1f%% (network bottleneck)", net1, cpu1)
	}
	if cpu10 < net10 {
		t.Errorf("10Gbps: cpu %.1f%% should exceed net %.1f%%", cpu10, net10)
	}
	if mk1, mk10 := cell(rep, 0, 1), cell(rep, 2, 1); mk1 <= mk10 {
		t.Errorf("1Gbps makespan %.0f should exceed 10Gbps %.0f", mk1, mk10)
	}
}

func TestSamplerSeriesNamesStable(t *testing.T) {
	if metrics.SeriesCPU != "[CPU]Totl%" {
		t.Error("series name drift breaks figure CSV headers")
	}
}
