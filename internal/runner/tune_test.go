package runner

import (
	"testing"

	"dnnperf/internal/hw"
)

// TestBestConfigReproducesInsights checks the paper's Section IX tuning
// table: best ppn is 2/4/4 for the 28/40/48-core Intel CPUs under
// TensorFlow, and ppn == cores for PyTorch.
func TestBestConfigReproducesInsights(t *testing.T) {
	cases := []struct {
		platform hw.Platform
		fw       string
		bs       int
		wantPPN  []int // acceptable values
	}{
		{hw.PlatformSkylake1, "tensorflow", 128, []int{2, 4}},
		{hw.PlatformSkylake2, "tensorflow", 128, []int{2, 4}},
		{hw.PlatformSkylake3, "tensorflow", 128, []int{4, 8}},
		// The paper runs PyTorch at BS 16 per rank; BS 128 x 64 ranks would
		// blow the node's 192 GB (the tuner's memory check now knows that).
		{hw.PlatformSkylake3, "pytorch", 16, []int{32, 48, 64}},
	}
	for _, tc := range cases {
		best, err := BestConfig("resnet50", tc.fw, tc.platform, 1, tc.bs)
		if err != nil {
			t.Fatal(err)
		}
		ok := false
		for _, w := range tc.wantPPN {
			if best.Config.PPN == w {
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s/%s: best ppn = %d, want one of %v (%.1f img/s over %d candidates)",
				tc.platform.CPU.Label, tc.fw, best.Config.PPN, tc.wantPPN, best.ImagesPerSec, best.Searched)
		}
	}
}

func TestBestConfigValidation(t *testing.T) {
	if _, err := BestConfig("nope", "tensorflow", hw.PlatformSkylake3, 1, 64); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestBestConfigBeatsSingleProcess(t *testing.T) {
	best, err := BestConfig("inception4", "tensorflow", hw.PlatformSkylake3, 1, 128)
	if err != nil {
		t.Fatal(err)
	}
	if best.Config.PPN < 2 {
		t.Fatalf("tuned config should be multi-process, got ppn=%d", best.Config.PPN)
	}
}

func TestKeyInsights(t *testing.T) {
	ins, err := KeyInsights()
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) < 6 {
		t.Fatalf("only %d insights", len(ins))
	}
	for _, i := range ins {
		if i.Measured <= 0 {
			t.Fatalf("%s: measured %v", i.Name, i.Measured)
		}
	}
}
