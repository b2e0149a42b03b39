package trainsim

import (
	"testing"

	"dnnperf/internal/hw"
)

func TestEstimateMemoryComponents(t *testing.T) {
	est, err := EstimateMemory("resnet50", 32)
	if err != nil {
		t.Fatal(err)
	}
	// Weights: 25.6M params * 4B ~ 102 MB; grads and optimizer match.
	if est.Params < 95<<20 || est.Params > 110<<20 {
		t.Fatalf("params bytes %d", est.Params)
	}
	if est.Grads != est.Params || est.Optimizer != est.Params {
		t.Fatal("grads/optimizer must mirror params")
	}
	if est.Activations <= est.Params {
		t.Fatal("activations at BS 32 must dominate weights for ResNet-50")
	}
	if est.Total() <= est.Params+est.Grads+est.Optimizer {
		t.Fatal("total must include activations and workspace")
	}
	// Activations scale with batch.
	est2, _ := EstimateMemory("resnet50", 64)
	ratio := float64(est2.Activations) / float64(est.Activations)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("activation scaling %g, want ~2", ratio)
	}
	if _, err := EstimateMemory("nope", 32); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestCheckMemoryFlagsOversizedJobs(t *testing.T) {
	ok := Config{Model: "resnet50", CPU: hw.Skylake3, PPN: 4, BatchPerProc: 32}
	if _, fits, err := CheckMemory(ok); err != nil || !fits {
		t.Fatalf("normal config must fit: fits=%v err=%v", fits, err)
	}
	// ResNet-152 at batch 1024 x 4 ranks cannot fit 192 GB.
	huge := Config{Model: "resnet152", CPU: hw.Skylake3, PPN: 4, BatchPerProc: 1024}
	_, fits, err := CheckMemory(huge)
	if err != nil {
		t.Fatal(err)
	}
	if fits {
		t.Fatal("1024x4 ResNet-152 must exceed 192 GB")
	}
}

func TestNodesForInvertsThroughput(t *testing.T) {
	cfg := Config{Model: "resnet152", CPU: hw.Skylake3, Net: hw.OmniPath, PPN: 4, BatchPerProc: 32}
	one, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Find nodes for ~20x the single-node rate.
	n, err := NodesFor(cfg, 20*one.ImagesPerSec, 128)
	if err != nil {
		t.Fatal(err)
	}
	if n < 19 || n > 22 {
		t.Fatalf("NodesFor = %d, want ~20-21", n)
	}
	// The found count meets the target; one fewer does not.
	cfg.Nodes = n
	r, _ := Simulate(cfg)
	if r.ImagesPerSec < 20*one.ImagesPerSec {
		t.Fatalf("found count misses target: %g", r.ImagesPerSec)
	}
	if _, err := NodesFor(cfg, 1e12, 64); err == nil {
		t.Fatal("unreachable target must error")
	}
	if _, err := NodesFor(cfg, -1, 64); err == nil {
		t.Fatal("negative target must error")
	}
}
