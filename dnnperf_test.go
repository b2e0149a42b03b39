package dnnperf

import (
	"strings"
	"testing"
)

func TestFacadeSimulate(t *testing.T) {
	r, err := Simulate(SimConfig{Model: "resnet50", CPU: Skylake3, Net: OmniPath, PPN: 4, BatchPerProc: 32})
	if err != nil {
		t.Fatal(err)
	}
	if r.ImagesPerSec < 80 || r.ImagesPerSec > 130 {
		t.Fatalf("Skylake-3 ResNet-50 MP = %.1f img/s, want ~105", r.ImagesPerSec)
	}
}

func TestFacadeGPU(t *testing.T) {
	r, err := SimulateGPU(GPUSimConfig{Model: "resnet50", GPU: V100, BatchPerGPU: 64})
	if err != nil {
		t.Fatal(err)
	}
	if r.ImagesPerSec < 250 || r.ImagesPerSec > 450 {
		t.Fatalf("V100 ResNet-50 = %.1f img/s, want ~360", r.ImagesPerSec)
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 28 {
		t.Fatalf("%d experiments", len(ids))
	}
	if len(Experiments()) != len(ids) {
		t.Fatal("Experiments() and ExperimentIDs() disagree")
	}
	tbl, err := RunExperiment("table1")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tbl.Render(&sb)
	if !strings.Contains(sb.String(), "EPYC") {
		t.Fatal("table render missing EPYC")
	}
}

func TestFacadeCatalog(t *testing.T) {
	if Skylake3.Cores() != 48 || EPYC.Cores() != 64 {
		t.Fatal("catalog wrong")
	}
	for _, l := range []string{"Skylake-1", "EPYC"} {
		if _, err := PlatformFor(l); err != nil {
			t.Fatal(err)
		}
	}
	if len(PaperModels()) != 5 {
		t.Fatal("paper models")
	}
	if len(ModelNames()) < 6 {
		t.Fatal("model names")
	}
}

func TestFacadeBestConfig(t *testing.T) {
	tc, err := BestConfig("resnet50", "pytorch", Platform{CPU: Skylake3, Net: OmniPath}, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Config.PPN < 16 {
		t.Fatalf("PyTorch best ppn = %d, want high (one rank per core)", tc.Config.PPN)
	}
}

func TestFacadeKeyInsights(t *testing.T) {
	ins, err := KeyInsights()
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) < 6 {
		t.Fatalf("%d insights", len(ins))
	}
}

func TestFacadeModelInfo(t *testing.T) {
	info, err := ModelInfo("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	if info.Display != "ResNet-50" || info.ParamsM < 25 || info.ParamsM > 26 {
		t.Fatalf("ModelInfo = %+v", info)
	}
	if _, err := ModelInfo("nope"); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestFacadeWriteModelDOT(t *testing.T) {
	var sb strings.Builder
	if err := WriteModelDOT(&sb, "tinycnn"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "digraph") || !strings.Contains(sb.String(), "conv2d") {
		t.Fatal("DOT output incomplete")
	}
	if err := WriteModelDOT(&sb, "nope"); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestFacadePipelineAndMemory(t *testing.T) {
	r, err := SimulatePipeline(PipelineConfig{Model: "resnet50", CPU: Skylake3, Net: OmniPath, Stages: 2})
	if err != nil || r.ImagesPerSec <= 0 {
		t.Fatalf("pipeline: %v %v", r.ImagesPerSec, err)
	}
	est, err := EstimateMemory("resnet50", 32)
	if err != nil || est.Total() <= 0 {
		t.Fatalf("memory: %v %v", est, err)
	}
	if _, _, err := CheckMemory(SimConfig{Model: "resnet50", CPU: Skylake3, PPN: 4, BatchPerProc: 32}); err != nil {
		t.Fatal(err)
	}
	n, err := NodesFor(SimConfig{Model: "resnet50", CPU: Skylake3, Net: OmniPath, PPN: 4, BatchPerProc: 32}, 500, 64)
	if err != nil || n < 2 {
		t.Fatalf("NodesFor: %d %v", n, err)
	}
}

func TestRunExperimentByID(t *testing.T) {
	tbl, err := RunExperiment("table1")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "table1" {
		t.Fatalf("got %q", tbl.ID)
	}
	if _, err := RunExperiment("fig0"); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestExperimentIDsComplete(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 25 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
}

func TestWriteReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	var sb strings.Builder
	if err := WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"# dnnperf reproduction report", "### fig17", "### ablations"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestRunAllRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	var sb strings.Builder
	if err := RunAll(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, id := range ExperimentIDs() {
		if !strings.Contains(out, id+" — ") {
			t.Fatalf("RunAll output missing %s", id)
		}
	}
}
