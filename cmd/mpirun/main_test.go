package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dnnperf/internal/telemetry"
)

// buildMpirun compiles the command into the test's temp dir: the launcher
// re-executes its own binary per rank and classifies the job from the
// workers' exit codes, which `go run` would collapse to 1.
func buildMpirun(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the mpirun binary and launches multi-process TCP jobs")
	}
	bin := filepath.Join(t.TempDir(), "mpirun")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// mpirun runs the binary and returns its exit code and captured streams.
func mpirun(t *testing.T, bin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &o, &e
	if err := cmd.Run(); err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("mpirun %v: %v", args, err)
		}
	}
	return cmd.ProcessState.ExitCode(), o.String(), e.String()
}

func jobSpecPath(name string) string {
	return filepath.Join("..", "..", "examples", "jobs", name)
}

// writeSpec drops a job spec into the test's temp dir.
func writeSpec(t *testing.T, name, yaml string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(yaml), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCleanRunMergesEveryRank: a clean run exits 0 and rank 0 writes a
// metrics document holding every rank's snapshot — the committed rigid
// 2-rank spec and the same job marked elastic alike, because elastic selects
// no code path: both end on an idle communicator that can run the gather.
func TestCleanRunMergesEveryRank(t *testing.T) {
	bin := buildMpirun(t)
	rigid, err := os.ReadFile(jobSpecPath("dp2.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	for name, spec := range map[string]string{
		"rigid":   jobSpecPath("dp2.yaml"),
		"elastic": writeSpec(t, "dp2_elastic.yaml", string(rigid)+"elastic: true\n"),
	} {
		t.Run(name, func(t *testing.T) {
			metrics := filepath.Join(t.TempDir(), "metrics.json")
			code, stdout, stderr := mpirun(t, bin, "-job", spec, "-metrics", metrics)
			if code != exitClean {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, exitClean, stdout, stderr)
			}
			blob, err := os.ReadFile(metrics)
			if err != nil {
				t.Fatal(err)
			}
			var doc telemetry.MergedMetrics
			if err := json.Unmarshal(blob, &doc); err != nil {
				t.Fatalf("metrics document: %v", err)
			}
			if len(doc.Ranks) != 2 || doc.Truncated {
				t.Fatalf("metrics document lists %d rank(s), truncated=%t; want 2 complete", len(doc.Ranks), doc.Truncated)
			}
		})
	}
}

// TestRigidDieRankFailsTyped: without elastic there is no recovery budget,
// under this launcher like every other — the victim dies its injected death
// (exit 2, so the launcher does not report it), and each survivor resolves
// to a typed peer failure within the recv deadline and exits 1 — blaming the
// peer it was waiting on, which is the victim or a survivor that gave up
// first. No recovery, no hang.
func TestRigidDieRankFailsTyped(t *testing.T) {
	bin := buildMpirun(t)
	spec := writeSpec(t, "rigid_crash.yaml",
		"name: rigid_crash\nppn: 3\nsteps: 6\nrecv_timeout: 1s\nintra_threads: 2\ndie_rank: 2\ndie_step: 2\n")
	code, stdout, stderr := mpirun(t, bin, "-job", spec)
	if code != exitFailure {
		t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, exitFailure, stdout, stderr)
	}
	for _, want := range []string{
		"rank 2: aborted transport after step 2",
		"mpirun worker 0: peer failure (rank ",
		"mpirun worker 1: peer failure (rank ",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
	if strings.Contains(stderr, "mpirun worker 2:") || strings.Contains(stderr, "mpirun: rank 2:") {
		t.Errorf("the victim's injected death was reported as a failure:\n%s", stderr)
	}
	if strings.Contains(stdout, "outcome") {
		t.Errorf("a rigid job that lost a rank printed a job summary:\n%s", stdout)
	}
}

// TestElasticCrashLeavesFlightDump: the 4-rank crash spec ends recovered
// (exit 3), and the rank that died dumps a non-empty flight recorder beside
// the trace — it must train under the worker's tracer for the ring to hold
// anything.
func TestElasticCrashLeavesFlightDump(t *testing.T) {
	bin := buildMpirun(t)
	dir := t.TempDir()
	code, stdout, stderr := mpirun(t, bin, "-job", jobSpecPath("elastic_crash.yaml"),
		"-trace", filepath.Join(dir, "trace.json"), "-metrics", filepath.Join(dir, "metrics.json"))
	if code != exitRecovered {
		t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, exitRecovered, stdout, stderr)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "flight-rank2.json"))
	if err != nil {
		t.Fatalf("the dying rank left no flight-recorder dump: %v\nstderr:\n%s", err, stderr)
	}
	var dump telemetry.FlightDump
	if err := json.Unmarshal(blob, &dump); err != nil {
		t.Fatalf("dump is not FlightDump JSON: %v", err)
	}
	if dump.Rank != 2 || len(dump.Events) == 0 {
		t.Fatalf("dump rank=%d events=%d, want rank 2 with its final spans", dump.Rank, len(dump.Events))
	}
}

// TestRejectedBeforeSpawning: whatever is wrong with the invocation is
// reported once, by the launcher, before any worker process exists to
// repeat it.
func TestRejectedBeforeSpawning(t *testing.T) {
	bin := buildMpirun(t)
	bad := filepath.Join(t.TempDir(), "bad.yaml")
	if err := os.WriteFile(bad, []byte("name: bad\nppn: 3\nregrow: true\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"invalid spec", []string{"-job", bad}, "regrow requires elastic"},
		{"bogus profile", []string{"-job", jobSpecPath("dp4.yaml"), "-profile", "bogus"}, "-profile must be cpu or heap"},
		{"no spec", nil, "-job spec.yaml is required"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := mpirun(t, bin, tc.args...)
			if code != exitFailure {
				t.Fatalf("exit %d, want %d", code, exitFailure)
			}
			lines := strings.Split(strings.TrimSpace(stderr), "\n")
			if len(lines) != 1 || !strings.HasPrefix(lines[0], "mpirun:") || !strings.Contains(lines[0], tc.want) {
				t.Fatalf("want exactly one launcher error line containing %q, got:\n%s", tc.want, stderr)
			}
			if stdout != "" {
				t.Fatalf("a worker ran:\n%s", stdout)
			}
		})
	}
}

// TestRemovedFlagRejected: the job shape is not a flag any more.
func TestRemovedFlagRejected(t *testing.T) {
	bin := buildMpirun(t)
	code, _, stderr := mpirun(t, bin, "-np", "4")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -np") {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
}
