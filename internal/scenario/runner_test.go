package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// killRankYAML is the acceptance scenario for deterministic replay: an
// elastic 3-rank in-process job loses rank 2 after step 3, and the
// survivors must shrink, roll back and finish the budget.
const killRankYAML = `
name: kill_replay
seed: 4242
transport: inproc
job:
  ppn: 3
  recv_timeout: 500ms
  steps: 6
  batch: 4
  elastic: true
  ckpt_every: 2
timeline:
  - at_step: 3
    action: kill_rank
    rank: 2
asserts:
  - check: recovered_within
    within: 30s
  - check: outcome
    equals: recovered
  - check: final_step
`

func runOnce(t *testing.T, src string) *Report {
	t.Helper()
	spec, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestKillRankReplayDeterministic runs the same kill-rank scenario twice
// with the same seed and demands byte-identical event logs and a passing
// recovered_within on both runs — the replay contract that makes a chaos
// failure reproducible instead of anecdotal.
func TestKillRankReplayDeterministic(t *testing.T) {
	rep1 := runOnce(t, killRankYAML)
	rep2 := runOnce(t, killRankYAML)
	for i, rep := range []*Report{rep1, rep2} {
		if !rep.Pass {
			t.Errorf("run %d failed: %+v", i+1, rep.Asserts)
		}
		for _, a := range rep.Asserts {
			if a.Check == "recovered_within" && !a.Pass {
				t.Errorf("run %d: recovered_within failed: %s", i+1, a.Detail)
			}
		}
	}
	if !bytes.Equal(rep1.EventLogBytes(), rep2.EventLogBytes()) {
		t.Errorf("event logs differ across same-seed runs:\n--- run 1 ---\n%s--- run 2 ---\n%s",
			rep1.EventLogBytes(), rep2.EventLogBytes())
	}
	if len(rep1.EventLog) == 0 {
		t.Error("event log is empty")
	}
}

// regrowYAML exercises the whole elastic lifecycle in-process: rank 2 is
// killed after step 3, the majority shrinks and keeps training, and once
// a survivor reaches step 5 the dead rank is relaunched as a joiner and
// readmitted, growing the world back to 3.
const regrowYAML = `
name: regrow_replay
seed: 777
transport: inproc
job:
  ppn: 3
  recv_timeout: 250ms
  steps: 8
  batch: 4
  elastic: true
  ckpt_every: 2
  regrow_wait: 30s
timeline:
  - at_step: 3
    action: kill_rank
    rank: 2
  - at_step: 5
    action: restart_rank
    rank: 2
asserts:
  - check: recovered_within
    within: 60s
  - check: regrown_within
    within: 60s
  - check: world_size_final
  - check: no_split_brain
  - check: outcome
    equals: recovered
  - check: final_step
`

// TestRegrowReplayDeterministic runs the restart-and-regrow scenario twice
// with the same seed: both runs must pass every assertion (including the
// split-brain postcondition) and leave byte-identical event logs — regrow
// admission is wall-clock-racy internally, so the log may carry only its
// timing-free facts, and this test is what holds that line.
func TestRegrowReplayDeterministic(t *testing.T) {
	rep1 := runOnce(t, regrowYAML)
	rep2 := runOnce(t, regrowYAML)
	for i, rep := range []*Report{rep1, rep2} {
		if !rep.Pass {
			t.Errorf("run %d failed: %+v", i+1, rep.Asserts)
		}
	}
	if !bytes.Equal(rep1.EventLogBytes(), rep2.EventLogBytes()) {
		t.Errorf("event logs differ across same-seed runs:\n--- run 1 ---\n%s--- run 2 ---\n%s",
			rep1.EventLogBytes(), rep2.EventLogBytes())
	}
	log := string(rep1.EventLogBytes())
	for _, want := range []string{
		"event at_step=5 restart_rank rank=2",
		"regrow joined=[2] world=2->3",
		"rank 2 outcome=recovered",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("event log missing %q:\n%s", want, log)
		}
	}
}

// TestRerunSameOutDir runs the regrow scenario twice into one output
// directory: the second run must start from an empty checkpoint directory,
// not cold-resume from the first run's final checkpoint, so the kill and
// the regrow fire again and the event logs match.
func TestRerunSameOutDir(t *testing.T) {
	dir := t.TempDir()
	var logs [2][]byte
	for i := range logs {
		spec, err := Parse([]byte(regrowYAML))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(spec, Options{OutDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Pass {
			t.Errorf("run %d failed: %+v", i+1, rep.Asserts)
		}
		logs[i] = rep.EventLogBytes()
	}
	if !bytes.Equal(logs[0], logs[1]) {
		t.Errorf("event logs differ across reruns into one -out:\n--- run 1 ---\n%s--- run 2 ---\n%s", logs[0], logs[1])
	}
}

// stormYAML is the multi-event storm: a 5-rank in-process job loses TWO
// ranks after the same step — the surviving 3-of-5 majority must absorb
// both deaths (in one recovery round or two, depending on detection
// timing) — and both casualties are later relaunched and readmitted,
// growing the world back to 5.
const stormYAML = `
name: storm_replay
seed: 1313
transport: inproc
job:
  ppn: 5
  recv_timeout: 500ms
  steps: 10
  batch: 4
  elastic: true
  ckpt_every: 2
  regrow_wait: 30s
timeline:
  - at_step: 3
    action: kill_rank
    rank: 3
  - at_step: 3
    action: kill_rank
    rank: 4
  - at_step: 6
    action: restart_rank
    rank: 3
  - at_step: 6
    action: restart_rank
    rank: 4
asserts:
  - check: recovered_within
    within: 60s
  - check: world_size_final
  - check: no_split_brain
  - check: outcome
    equals: recovered
  - check: final_step
`

// TestStormReplayDeterministic holds the aggregation contract for storms:
// concurrent failures may batch into a different number of recovery rounds
// on each run, so the event log records the aggregate trajectory — sorted
// union of failed ranks, world endpoints, earliest rollback — and THAT
// must be byte-identical across same-seed runs.
func TestStormReplayDeterministic(t *testing.T) {
	rep1 := runOnce(t, stormYAML)
	rep2 := runOnce(t, stormYAML)
	for i, rep := range []*Report{rep1, rep2} {
		if !rep.Pass {
			t.Errorf("run %d failed: %+v", i+1, rep.Asserts)
		}
	}
	if !bytes.Equal(rep1.EventLogBytes(), rep2.EventLogBytes()) {
		t.Errorf("event logs differ across same-seed runs:\n--- run 1 ---\n%s--- run 2 ---\n%s",
			rep1.EventLogBytes(), rep2.EventLogBytes())
	}
	log := string(rep1.EventLogBytes())
	for _, want := range []string{
		"recovery failed=[3 4] world=5->3",
		"regrow joined=[3 4] world=3->5",
		"rank 3 outcome=recovered",
		"rank 4 outcome=recovered",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("event log missing %q:\n%s", want, log)
		}
	}
}

// TestDuplicateKillRejected pins the storm DSL's validation rule: a second
// kill_rank for the same rank is a spec bug (one process cannot die twice),
// not a silently-last-wins override.
func TestDuplicateKillRejected(t *testing.T) {
	const dup = `
name: dup_kill
seed: 1
job:
  ppn: 3
  steps: 8
  elastic: true
timeline:
  - at_step: 2
    action: kill_rank
    rank: 2
  - at_step: 4
    action: kill_rank
    rank: 2
`
	if _, err := Parse([]byte(dup)); err == nil || !strings.Contains(err.Error(), "duplicate kill_rank") {
		t.Fatalf("want duplicate kill_rank error, got %v", err)
	}
}

// schedYAML drives a 120-job, 3-tenant synthetic stream through the
// dnnsched gang scheduler on the discrete-event clock.
const schedYAML = `
name: sched_replay
seed: 2024
kind: sched
workload:
  cluster:
    nodes: 4
    slots_per_node: 8
  synth:
    jobs: 120
    tenants: 3
asserts:
  - check: sched_complete
  - check: utilization_min
    value: 0.3
  - check: preemptions_min
    value: 1
`

// TestSchedReplayDeterministic runs the scheduler scenario twice: both
// runs must pass (stream drained, no deadlocks, utilization floor met,
// preemption actually exercised) with byte-identical event logs — the
// scheduler's virtual-clock decisions are part of the replay contract.
func TestSchedReplayDeterministic(t *testing.T) {
	rep1 := runOnce(t, schedYAML)
	rep2 := runOnce(t, schedYAML)
	for i, rep := range []*Report{rep1, rep2} {
		if !rep.Pass {
			t.Errorf("run %d failed: %+v", i+1, rep.Asserts)
		}
		if rep.Sched == nil || rep.Sched.Jobs != 120 {
			t.Fatalf("run %d: missing or short sched report: %+v", i+1, rep.Sched)
		}
	}
	if !bytes.Equal(rep1.EventLogBytes(), rep2.EventLogBytes()) {
		t.Error("sched event logs differ across same-seed runs")
	}
}

// faultSoakYAML drives seeded fault injection hard enough that every
// counter class moves, so log equality below is a real test of the
// per-rank fault streams, not of zeros.
const faultSoakYAML = `
name: fault_replay
seed: 31337
kind: collectives
transport: inproc
vec_elems: 1024
job:
  ppn: 4
  recv_timeout: 250ms
  allreduce_alg: ring
  steps: 8
  faults:
    delay_prob: 0.2
    delay: 1ms
timeline:
  - at_step: 4
    action: set_faults
    faults:
      drop_prob: 0.2
      delay_prob: 0.1
      delay: 1ms
`

// TestCollectivesReplayDeterministic is the satellite regression: two
// same-seed runs must produce identical event sequences and identical
// per-rank FaultStats (the "rank N faults ..." log lines).
func TestCollectivesReplayDeterministic(t *testing.T) {
	rep1 := runOnce(t, faultSoakYAML)
	rep2 := runOnce(t, faultSoakYAML)
	if !bytes.Equal(rep1.EventLogBytes(), rep2.EventLogBytes()) {
		t.Errorf("event logs differ across same-seed runs:\n--- run 1 ---\n%s--- run 2 ---\n%s",
			rep1.EventLogBytes(), rep2.EventLogBytes())
	}
	stats1 := faultLines(rep1)
	stats2 := faultLines(rep2)
	if len(stats1) != 4 {
		t.Fatalf("want 4 per-rank fault-stat lines, got %d:\n%s", len(stats1), rep1.EventLogBytes())
	}
	for i := range stats1 {
		if stats1[i] != stats2[i] {
			t.Errorf("FaultStats differ for rank %d:\n  run 1: %s\n  run 2: %s", i, stats1[i], stats2[i])
		}
	}
	// The soak is only meaningful if the injected faults actually fired.
	var moved bool
	for _, line := range stats1 {
		if !strings.Contains(line, "dropped=0") || !strings.Contains(line, "delayed=0") {
			moved = true
		}
	}
	if !moved {
		t.Errorf("no fault counters moved; soak too weak:\n%s", strings.Join(stats1, "\n"))
	}
}

func faultLines(rep *Report) []string {
	var out []string
	for _, line := range rep.EventLog {
		if strings.Contains(line, " faults sent=") {
			out = append(out, line)
		}
	}
	return out
}

// TestTrainsimDeterministic covers the simulator path: pure math on the
// seed, so even the float throughput figures must replay exactly.
func TestTrainsimDeterministic(t *testing.T) {
	const src = `
name: sim_replay
seed: 9
kind: trainsim
job:
  nodes: 4
  ppn: 2
  batch: 32
  steps: 12
timeline:
  - action: straggle
    rank: 3
    at_step: 1
    factor: 2.5
asserts:
  - check: straggler_flagged
    rank: 3
`
	rep1 := runOnce(t, src)
	rep2 := runOnce(t, src)
	if !rep1.Pass || !rep2.Pass {
		t.Fatalf("trainsim runs failed: %+v / %+v", rep1.Asserts, rep2.Asserts)
	}
	if !bytes.Equal(rep1.EventLogBytes(), rep2.EventLogBytes()) {
		t.Errorf("event logs differ:\n--- run 1 ---\n%s--- run 2 ---\n%s",
			rep1.EventLogBytes(), rep2.EventLogBytes())
	}
	if rep1.ThroughputImgS != rep2.ThroughputImgS {
		t.Errorf("simulated throughput differs: %v vs %v", rep1.ThroughputImgS, rep2.ThroughputImgS)
	}
}

// TestLibraryScenariosValid parses and validates every shipped scenario so
// a schema change that orphans the library fails here, not in CI's smoke
// job.
func TestLibraryScenariosValid(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 4 {
		t.Fatalf("scenario library too small: %d files", len(paths))
	}
	for _, path := range paths {
		if _, err := Load(path); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// TestLibraryReplayGolden runs the library's fast, fully deterministic
// entries — a collectives soak, a simulated fleet and a scheduler run, one
// per kind whose defaults live in the job schema — and compares each event
// log byte for byte with the one recorded in testdata/, so a change to the
// schema or its defaults that moves a run fails here.
func TestLibraryReplayGolden(t *testing.T) {
	for _, name := range []string{"drop_soak", "straggler_fleet", "sched_cluster"} {
		t.Run(name, func(t *testing.T) {
			spec, err := Load(filepath.Join("..", "..", "scenarios", name+".yaml"))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", name+".log"))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Pass {
				t.Errorf("verdict FAIL: %+v", rep.Asserts)
			}
			if got := rep.EventLogBytes(); !bytes.Equal(got, want) {
				t.Errorf("event log differs from testdata/%s.log:\n--- got ---\n%s", name, got)
			}
		})
	}
}
