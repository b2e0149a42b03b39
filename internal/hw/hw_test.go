package hw

import "testing"

// TestTable1MatchesPublishedSpecs pins the catalog to Table I of the paper.
func TestTable1MatchesPublishedSpecs(t *testing.T) {
	cases := []struct {
		label   string
		clock   float64
		cores   int
		threads int
		cluster string
	}{
		{"Skylake-1", 2.6, 28, 1, "RI2"},
		{"Skylake-2", 2.4, 40, 1, "Pitzer"},
		{"Skylake-3", 2.1, 48, 2, "Stampede2"},
		{"Broadwell", 2.4, 28, 1, "RI2"},
		{"EPYC", 2.0, 64, 2, "AMD-Cluster"},
	}
	for _, tc := range cases {
		c, err := ByLabel(tc.label)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if c.ClockGHz != tc.clock {
			t.Errorf("%s clock = %v, want %v", tc.label, c.ClockGHz, tc.clock)
		}
		if c.Cores() != tc.cores {
			t.Errorf("%s cores = %d, want %d", tc.label, c.Cores(), tc.cores)
		}
		if c.ThreadsPerCore != tc.threads {
			t.Errorf("%s threads/core = %d, want %d", tc.label, c.ThreadsPerCore, tc.threads)
		}
		if c.Cluster != tc.cluster {
			t.Errorf("%s cluster = %s, want %s", tc.label, c.Cluster, tc.cluster)
		}
	}
	if len(Table1()) != 5 {
		t.Fatalf("Table I must have 5 rows")
	}
}

func TestLogicalCPUs(t *testing.T) {
	if Skylake3.LogicalCPUs() != 96 {
		t.Fatalf("Skylake-3 logical = %d, want 96", Skylake3.LogicalCPUs())
	}
	if Skylake1.LogicalCPUs() != 28 {
		t.Fatalf("Skylake-1 logical = %d, want 28", Skylake1.LogicalCPUs())
	}
}

func TestMKLFallback(t *testing.T) {
	if Skylake3.FlopsPerCycle(true) <= Skylake3.FlopsPerCycle(false) {
		t.Fatal("Skylake MKL path must beat generic")
	}
	if EPYC.FlopsPerCycle(true) != EPYC.FlopsPerCycle(false) {
		t.Fatal("EPYC must ignore the MKL request")
	}
}

func TestPeakOrdering(t *testing.T) {
	// The three Skylakes on the MKL path must rank by cores*clock.
	s1 := Skylake1.PeakGFLOPs(true)
	s2 := Skylake2.PeakGFLOPs(true)
	s3 := Skylake3.PeakGFLOPs(true)
	if !(s3 > s2 && s2 > s1) {
		t.Fatalf("Skylake peak ordering wrong: %g %g %g", s1, s2, s3)
	}
	// Broadwell (AVX2) trails every Skylake.
	if Broadwell.PeakGFLOPs(true) >= s1 {
		t.Fatal("Broadwell must trail Skylake-1")
	}
	// EPYC on the generic path trails all Intel MKL platforms.
	if EPYC.PeakGFLOPs(true) >= Broadwell.PeakGFLOPs(true) {
		t.Fatal("EPYC generic path must trail Broadwell MKL")
	}
}

func TestGPULookupAndOrdering(t *testing.T) {
	if !(V100.EffGFLOPs(64) > P100.EffGFLOPs(64) && P100.EffGFLOPs(64) > K80.EffGFLOPs(64)) {
		t.Fatal("GPU generation ordering wrong")
	}
}

func TestPlatformLookup(t *testing.T) {
	for _, l := range []string{"Skylake-1", "Skylake-2", "Skylake-3", "Broadwell", "EPYC"} {
		p, err := PlatformFor(l)
		if err != nil {
			t.Fatalf("%s: %v", l, err)
		}
		if p.CPU.Label != l || p.Net.Label == "" {
			t.Fatalf("%s platform malformed: %+v", l, p)
		}
	}
	if _, err := PlatformFor("KNL"); err == nil {
		t.Fatal("unknown platform must error")
	}
	// Stampede2 uses Omni-Path; the rest InfiniBand EDR.
	if PlatformSkylake3.Net.Label != "Omni-Path" {
		t.Fatal("Skylake-3 must use Omni-Path")
	}
	if PlatformEPYC.Net.Label != "IB-EDR" {
		t.Fatal("EPYC must use IB-EDR")
	}
}

func TestByLabelUnknown(t *testing.T) {
	if _, err := ByLabel("Cascade-Lake"); err == nil {
		t.Fatal("unknown CPU must error")
	}
}
