package scenario

import (
	"strings"
	"testing"
	"time"
)

const sampleYAML = `
# A representative scenario exercising the whole subset.
name: sample
description: "quoted: string"
seed: 42
transport: tcp
job:
  ppn: 3
  recv_timeout: 750ms
  steps: 8
  elastic: true
timeline:
  - at_step: 3
    action: kill_rank
    rank: 2
  - at: 2s              # wall-clock trigger
    action: set_faults
    faults:
      drop_prob: 0.25
      delay: 1ms
asserts:
  - check: recovered_within
    within: 30s
  - check: outcome
    equals: recovered
`

func TestParseYAMLScenario(t *testing.T) {
	spec, err := Parse([]byte(sampleYAML))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "sample" || spec.Seed != 42 {
		t.Fatalf("header mismatch: %+v", spec)
	}
	if spec.Description != "quoted: string" {
		t.Fatalf("quoted scalar: %q", spec.Description)
	}
	if spec.Kind != "train" || spec.Transport != "tcp" {
		t.Fatalf("kind/transport mismatch: %q/%q", spec.Kind, spec.Transport)
	}
	if spec.Job.RecvTimeout.D() != 750*time.Millisecond {
		t.Fatalf("recv_timeout %v", spec.Job.RecvTimeout)
	}
	if len(spec.Timeline) != 2 {
		t.Fatalf("timeline %v", spec.Timeline)
	}
	kill := spec.Timeline[0]
	if kill.Action != "kill_rank" || kill.Rank != 2 || kill.AtStep != 3 {
		t.Fatalf("kill event %+v", kill)
	}
	sf := spec.Timeline[1]
	if sf.Action != "set_faults" || sf.At.D() != 2*time.Second {
		t.Fatalf("set_faults event %+v", sf)
	}
	if sf.Faults == nil || sf.Faults.DropProb != 0.25 || sf.Faults.Delay.D() != time.Millisecond {
		t.Fatalf("faults template %+v", sf.Faults)
	}
	if len(spec.Asserts) != 2 || spec.Asserts[0].Within.D() != 30*time.Second {
		t.Fatalf("asserts %+v", spec.Asserts)
	}
	// The job is the job schema's, with the scenario's identity stamped in
	// and the job defaults (not the harness's) applied.
	js := spec.JobSpec()
	if js.Name != "sample" || js.Seed != 42 || js.Ranks() != 3 {
		t.Fatalf("identity not stamped: name=%q seed=%d ranks=%d", js.Name, js.Seed, js.Ranks())
	}
	if js.Batch != 4 || js.CkptEvery != 2 {
		t.Fatalf("job defaults not applied: %+v", js)
	}
}

func TestParseJSONScenario(t *testing.T) {
	src := `{"name": "j", "seed": 1, "kind": "collectives", "job": {"ppn": 2},
	         "asserts": [{"check": "typed_errors", "value": 1}]}`
	spec, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "j" || spec.Kind != "collectives" {
		t.Fatalf("%+v", spec)
	}
	if js := spec.JobSpec(); js.Steps != 8 || spec.VecElems != 2048 {
		t.Fatalf("collectives defaults: rounds=%d vec_elems=%d", js.Steps, spec.VecElems)
	}
}

func TestParseRejectsUnknownKeys(t *testing.T) {
	for _, src := range []string{
		"name: x\nseed: 1\nflete:\n  ranks: 2\n",
		// The retired scenario-only schema is unknown keys now.
		"name: x\nseed: 1\nfleet:\n  ranks: 2\n",
		"name: x\nseed: 1\njob:\n  rounds: 5\n",
	} {
		if _, err := Parse([]byte(src)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("unknown key not rejected in %q: %v", src, err)
		}
	}
}

func TestParseRejectsBadStructure(t *testing.T) {
	cases := map[string]string{
		"tabs":          "name: x\n\tseed: 1\n",
		"duplicate key": "name: x\nname: y\n",
		"orphan indent": "name: x\n    seed: 1\n",
		"non-entry":     "name: x\njust some text\n",
	}
	for what, src := range cases {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	// Every case but the first two names a valid 2-rank job, so each is
	// rejected for its own reason.
	const job = "name: x\njob:\n  ppn: 2\n"
	cases := map[string]struct{ src, want string }{
		"missing name":        {"seed: 1\n", "missing name"},
		"unknown transport":   {"name: x\ntransport: carrier-pigeon\n", "unknown transport"},
		"one rank":            {"name: x\n", ">= 2 ranks"},
		"sim transport":       {"name: x\nkind: trainsim\ntransport: tcp\n", "drop transport"},
		"unknown action":      {job + "timeline:\n  - action: explode\n    at_step: 1\n", "unknown action"},
		"wall-clock kill":     {job + "timeline:\n  - action: kill_rank\n    at: 2s\n    rank: 1\n", "wall-clock"},
		"kill after budget":   {"name: x\njob:\n  ppn: 2\n  steps: 4\ntimeline:\n  - action: kill_rank\n    at_step: 9\n    rank: 1\n", "must precede"},
		"rank out of range":   {job + "timeline:\n  - action: partition\n    at_step: 1\n    rank: 5\n", "out of range"},
		"unknown check":       {job + "asserts:\n  - check: vibes\n", "unknown check"},
		"bad outcome":         {job + "asserts:\n  - check: outcome\n    equals: sideways\n", "outcome equals"},
		"faultless set":       {job + "timeline:\n  - action: set_faults\n    at_step: 1\n", "faults template"},
		"harness seed":        {"name: x\njob:\n  ppn: 2\n  seed: 3\n", "job.seed is set by the harness"},
		"harness kill":        {"name: x\njob:\n  ppn: 2\n  die_rank: 1\n  die_step: 2\n", "kill_rank timeline event"},
		"scheduler key":       {"name: x\njob:\n  ppn: 2\n  priority: 5\n", "job.tenant/priority/submit_at/deadline is unused"},
		"model on live job":   {"name: x\njob:\n  ppn: 2\n  model: vgg16\n", "job.model/framework/platform is unused by train"},
		"harness workload":    {"name: x\nkind: sched\nworkload:\n  seed: 3\n  synth:\n    jobs: 5\n", "workload.seed is set by the harness"},
		"sched without jobs":  {"name: x\nkind: sched\n", "need a workload"},
		"restart, no linger":  {"name: x\njob:\n  ppn: 3\n  elastic: true\ntimeline:\n  - action: kill_rank\n    at_step: 2\n    rank: 2\n  - action: restart_rank\n    at_step: 4\n    rank: 2\n", "regrow_wait"},
		"wall-clock soak":     {"name: x\nkind: collectives\njob:\n  ppn: 2\ntimeline:\n  - action: set_faults\n    at: 2s\n    faults:\n      drop_prob: 0.1\n", "wall-clock"},
		"wall-clock straggle": {job + "timeline:\n  - action: straggle\n    at: 1s\n    rank: 1\n", "wall-clock"},
		"at and at_step":      {job + "timeline:\n  - action: partition\n    at: 1s\n    at_step: 2\n    rank: 1\n", "at most one of at and at_step"},
	}
	for what, c := range cases {
		_, err := Parse([]byte(c.src))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: want an error containing %q, got %v", what, c.want, err)
		}
	}
}

func TestDurationForms(t *testing.T) {
	spec, err := Parse([]byte("name: d\njob:\n  ppn: 2\n  recv_timeout: 2\n  cycle_time: 1ms\n"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Job.RecvTimeout.D() != 2*time.Second {
		t.Fatalf("numeric seconds: %v", spec.Job.RecvTimeout)
	}
	if spec.Job.CycleTime.D() != time.Millisecond {
		t.Fatalf("duration string: %v", spec.Job.CycleTime)
	}
}
