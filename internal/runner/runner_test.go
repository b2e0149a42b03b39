package runner

import (
	"strings"
	"testing"
)

// run executes an experiment by ID, failing the test on any error.
func run(t *testing.T, id string) *Table {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != id || len(tbl.Rows) == 0 || len(tbl.Columns) == 0 {
		t.Fatalf("malformed table for %s: %+v", id, tbl)
	}
	for _, r := range tbl.Rows {
		if len(r.Values) != len(tbl.Columns) {
			t.Fatalf("%s row %q has %d values for %d columns", id, r.Name, len(r.Values), len(tbl.Columns))
		}
	}
	return tbl
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig1a", "fig1b", "fig2", "fig3", "fig4", "fig5",
		"fig6a", "fig6b", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"fig19", "insights", "ablations", "modelzoo", "pipeline",
		"faulttol", "elastic",
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(ids), len(want), ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("experiment %d = %q, want %q", i, ids[i], id)
		}
	}
	if _, err := Get("fig99"); err == nil {
		t.Fatal("unknown ID must error")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	tbl := run(t, "table1")
	if len(tbl.Rows) != 5 {
		t.Fatalf("Table I must have 5 platforms, got %d", len(tbl.Rows))
	}
	// Spot-check Skylake-3's published spec row: 2.1 GHz, 48 cores, 2 t/c.
	for _, r := range tbl.Rows {
		if strings.HasPrefix(r.Name, "Skylake-3") {
			if r.Values[0] != 2.1 || r.Values[1] != 48 || r.Values[2] != 2 {
				t.Fatalf("Skylake-3 row wrong: %v", r.Values)
			}
			return
		}
	}
	t.Fatal("Skylake-3 row missing")
}

func TestFig1aThreadScalingShape(t *testing.T) {
	tbl := run(t, "fig1a")
	// Throughput at BS=128 must rise monotonically with threads up to the
	// socket (columns 0..4 are threads 1,2,4,8,14).
	for _, r := range tbl.Rows {
		if r.Name != "BS=128" {
			continue
		}
		for i := 1; i <= 4; i++ {
			if r.Values[i] <= r.Values[i-1] {
				t.Fatalf("BS=128 not monotone at column %d: %v", i, r.Values)
			}
		}
		// 28 threads (last) beats 14 threads but sublinearly.
		knee := r.Values[len(r.Values)-1] / r.Values[4]
		if knee < 1.0 || knee > 1.8 {
			t.Fatalf("14->28 gain %g out of range", knee)
		}
	}
}

func TestFig1bBatchEffectStrongerAtHighThreads(t *testing.T) {
	tbl := run(t, "fig1b")
	gain := func(row string) float64 {
		lo, _ := tbl.Cell(row, 0)
		hi, _ := tbl.Cell(row, 4) // BS 256
		return hi / lo
	}
	if gain("28 threads") <= gain("8 threads") {
		t.Fatalf("BS must matter more at 28 threads: %g vs %g", gain("28 threads"), gain("8 threads"))
	}
}

func TestFig4HyperThreadsHurt(t *testing.T) {
	tbl := run(t, "fig4")
	v48, ok1 := tbl.Cell("BS=128", 6)
	v96, ok2 := tbl.Cell("BS=128", 8)
	if !ok1 || !ok2 {
		t.Fatal("missing cells")
	}
	if v96 >= v48 {
		t.Fatalf("96 threads (%g) must underperform 48 (%g)", v96, v48)
	}
}

func TestFig6MPBeatsSP(t *testing.T) {
	for _, id := range []string{"fig6a", "fig6b"} {
		tbl := run(t, id)
		for i := range tbl.Columns {
			ratio, ok := tbl.Cell("MP/SP", i)
			if !ok {
				t.Fatalf("%s missing ratio row", id)
			}
			if ratio <= 1.1 {
				t.Fatalf("%s column %d: MP/SP = %g, must exceed 1.1", id, i, ratio)
			}
		}
	}
}

func TestFig17ScalingHeadline(t *testing.T) {
	tbl := run(t, "fig17")
	for _, r := range tbl.Rows {
		// Monotone scaling for every model.
		for i := 1; i < len(r.Values); i++ {
			if r.Values[i] <= r.Values[i-1] {
				t.Fatalf("%s not monotone at column %d", r.Name, i)
			}
		}
		if r.Name == "ResNet-152" {
			sp := r.Values[len(r.Values)-1] / r.Values[0]
			if sp < 110 || sp > 128 {
				t.Fatalf("ResNet-152 128-node speedup %g, want ~125", sp)
			}
		}
	}
}

func TestFig15Brackets(t *testing.T) {
	tbl := run(t, "fig15")
	for _, r := range tbl.Rows {
		k80, v100, sky := r.Values[0], r.Values[2], r.Values[3]
		if v100 <= sky {
			t.Fatalf("%s: V100 (%g) must beat Skylake-3 (%g)", r.Name, v100, sky)
		}
		if sky <= k80 {
			t.Fatalf("%s: Skylake-3 (%g) must beat K80 (%g)", r.Name, sky, k80)
		}
	}
}

func TestFig16PyTorchWinsOnGPU(t *testing.T) {
	tbl := run(t, "fig16")
	for _, r := range tbl.Rows {
		for pair := 0; pair < 3; pair++ {
			tf, pt := r.Values[2*pair], r.Values[2*pair+1]
			if pt <= tf {
				t.Fatalf("%s: PyTorch (%g) must beat TensorFlow (%g) on GPUs", r.Name, pt, tf)
			}
		}
	}
}

func TestFig18And19CycleTimeTrend(t *testing.T) {
	for _, id := range []string{"fig18", "fig19"} {
		tbl := run(t, id)
		for _, r := range tbl.Rows {
			if !strings.HasPrefix(r.Name, "HE ") {
				continue
			}
			first, last := r.Values[0], r.Values[len(r.Values)-1]
			if last >= first {
				t.Fatalf("%s %s: engine ops must fall with cycle time (%g -> %g)", id, r.Name, first, last)
			}
		}
	}
}

func TestFig10TunedBeatsDefaultBeatsNothing(t *testing.T) {
	tbl := run(t, "fig10")
	for _, r := range tbl.Rows {
		sp, def, tuned := r.Values[0], r.Values[1], r.Values[2]
		if tuned <= def || tuned <= sp {
			t.Fatalf("%s: MP-Tuned (%g) must beat MP-Default (%g) and SP (%g)", r.Name, tuned, def, sp)
		}
	}
}

func TestInsightsWithinTolerance(t *testing.T) {
	tbl := run(t, "insights")
	for _, r := range tbl.Rows {
		paper, measured := r.Values[0], r.Values[1]
		lo, hi := paper*0.5, paper*1.5
		if measured < lo || measured > hi {
			t.Errorf("%s: measured %.2f vs paper %.2f (outside ±50%%)", r.Name, measured, paper)
		}
	}
}

func TestRenderOutput(t *testing.T) {
	tbl := run(t, "table1")
	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	for _, want := range []string{"table1", "Skylake-3", "EPYC", "note:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderMarkdown(t *testing.T) {
	tbl := run(t, "table1")
	var sb strings.Builder
	tbl.RenderMarkdown(&sb)
	out := sb.String()
	for _, want := range []string{"### table1", "| platform |", "|---|", "> GF/s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestCellLookup(t *testing.T) {
	tbl := &Table{Columns: []string{"a", "b"}, Rows: []Row{{Name: "r", Values: []float64{1, 2}}}}
	if v, ok := tbl.Cell("r", 1); !ok || v != 2 {
		t.Fatal("Cell lookup failed")
	}
	if _, ok := tbl.Cell("missing", 0); ok {
		t.Fatal("missing row must not resolve")
	}
	if _, ok := tbl.Cell("r", 5); ok {
		t.Fatal("out-of-range column must not resolve")
	}
}

func TestFaultTolShape(t *testing.T) {
	tbl := run(t, "faulttol")
	// Healthy scenarios complete every attempted allreduce.
	for _, name := range []string{"clean", "delay 50% x1ms", "duplicate 100%"} {
		attempted, _ := tbl.Cell(name, 0)
		completed, ok := tbl.Cell(name, 1)
		if !ok || completed != attempted {
			t.Fatalf("%s: completed %g of %g", name, completed, attempted)
		}
	}
	// The partition completes nothing and every rank resolves to a typed
	// PeerError instead of hanging.
	if completed, _ := tbl.Cell("partition 0->1", 1); completed != 0 {
		t.Fatalf("partition completed %g allreduces", completed)
	}
	if typed, _ := tbl.Cell("partition 0->1", 2); typed != 4 {
		t.Fatalf("partition produced %g typed errors, want 4", typed)
	}
}

func TestElasticShape(t *testing.T) {
	if testing.Short() {
		t.Skip("elastic experiment trains real models")
	}
	tbl := run(t, "elastic")
	// Every scenario — including both failure injections — reaches the full
	// step count; that is the whole point of supervision.
	for _, r := range tbl.Rows {
		if final, _ := tbl.Cell(r.Name, 4); final != 10 {
			t.Errorf("%s: final step %g, want 10", r.Name, final)
		}
		if tput, _ := tbl.Cell(r.Name, 5); tput <= 0 {
			t.Errorf("%s: throughput %g, want > 0", r.Name, tput)
		}
	}
	// The clean run keeps all four ranks and never recovers.
	if n, _ := tbl.Cell("clean", 0); n != 4 {
		t.Errorf("clean survivors = %g, want 4", n)
	}
	if n, _ := tbl.Cell("clean", 1); n != 0 {
		t.Errorf("clean recoveries = %g, want 0", n)
	}
	// A worker death shrinks the world to 3 and rolls back to an even
	// (checkpoint-aligned) step with measurable recovery latency.
	if n, _ := tbl.Cell("worker dies @5", 0); n != 3 {
		t.Errorf("worker-death survivors = %g, want 3", n)
	}
	if resume, _ := tbl.Cell("worker dies @5", 2); int(resume)%2 != 0 || resume >= 10 {
		t.Errorf("worker-death resume step = %g, want even and < 10", resume)
	}
	if ms, _ := tbl.Cell("worker dies @5", 3); ms <= 0 {
		t.Errorf("worker-death recovery latency = %gms, want > 0", ms)
	}
	// The leader is the only checkpoint writer and dies before any save
	// survives it, so the survivors restart from step 0.
	if resume, _ := tbl.Cell("leader dies @1", 2); resume != 0 {
		t.Errorf("leader-death resume step = %g, want 0", resume)
	}
}
