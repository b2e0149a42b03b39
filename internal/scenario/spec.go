// Package scenario is the declarative chaos harness: a scenario file is a
// job — the job.Spec schema `mpirun -job` runs, or for the scheduler the
// job.Workload schema `dnnsched -workload` reads — plus a timeline of seeded
// fault events and a list of assertions. The runner executes it end to end
// against the functional stack (inproc or TCP transports, elastic supervised
// training, the fault-injection transport, the straggler detector) or the
// discrete-event simulator for large fleets. The job's shape and its
// defaults belong to internal/job; the harness owns what runs it (kind,
// transport), the identity it stamps into the job (name, seed) and the
// timeline. Runs are deterministic from the scenario seed: the same file run
// twice produces byte-identical event logs, which is what makes a chaos
// failure replayable instead of anecdotal.
package scenario

import (
	"fmt"

	"dnnperf/internal/job"
)

// Spec is one scenario file: what to run, what to break, what must hold.
type Spec struct {
	// Name identifies the scenario in reports and logs, and names its job.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed drives every random stream in the run (fault injection, data
	// sharding, simulator jitter) and is the job's and the workload's seed.
	// Two runs with the same seed replay the same event sequence.
	Seed int64 `json:"seed"`
	// Kind is "train" (default: real supervised SGD through the Horovod
	// engine), "collectives" (a direct allreduce soak on the raw comm layer,
	// one round per job step), "trainsim" (the analytical simulator) or
	// "sched" (a workload through the dnnsched gang scheduler on the
	// discrete-event clock).
	Kind string `json:"kind,omitempty"`
	// Transport is the live kinds' transport: "inproc" (default) or "tcp"
	// (real loopback sockets).
	Transport string `json:"transport,omitempty"`
	// Job is what every kind but sched runs, in the job.Spec schema: the rank
	// count is nodes × ppn, and recv_timeout, faults, platform and batch live
	// here. The harness sets the job's name and seed, kills and restarts come
	// from the timeline, and checkpoints go under the run's output directory.
	Job job.Spec `json:"job"`
	// Workload is a sched scenario's input, in the job.Workload schema.
	Workload *job.Workload `json:"workload,omitempty"`
	// VecElems is a collectives soak's vector length in float32 elements
	// (default 2048).
	VecElems int      `json:"vec_elems,omitempty"`
	Timeline []Event  `json:"timeline,omitempty"`
	Asserts  []Assert `json:"asserts,omitempty"`
}

// Event is one timeline entry: when to fire, and what to do.
//
// Actions:
//
//	kill_rank    — rank trains normally, then aborts its transport after
//	               completing step at_step (requires at_step).
//	restart_rank — relaunch a previously killed rank as a joiner once a
//	               surviving rank completes step at_step: the fresh
//	               process runs the rejoin admission loop and the world
//	               grows back. "rejoin" is an accepted synonym.
//	partition    — full network cut around rank at step at_step (or wall
//	               time at): the target blocks all its sends, every peer
//	               blocks sends toward it.
//	heal         — undo a partition around rank.
//	straggle     — from step at_step (default 1) on, slow rank's compute by
//	               factor (default 2: sleeps (factor-1)x the step's measured
//	               compute time).
//	set_faults   — swap every rank's fault-rate template for faults.
type Event struct {
	// At triggers on wall-clock time from run start: partition, heal and
	// set_faults of train jobs only — a wall-clock kill would not replay, and
	// the other kinds have no clock running beside their steps.
	At job.Duration `json:"at,omitempty"`
	// AtStep triggers when a rank completes global step AtStep (for
	// collectives jobs: before round AtStep). An event sets at most one of
	// At and AtStep.
	AtStep int64  `json:"at_step,omitempty"`
	Action string `json:"action"`
	// Rank is the event's target (kill_rank, partition, heal, straggle).
	Rank int `json:"rank,omitempty"`
	// Factor is the straggle slowdown multiplier (> 1).
	Factor float64 `json:"factor,omitempty"`
	// Faults is the template a set_faults event installs.
	Faults *job.Faults `json:"faults,omitempty"`
}

// Assert is one postcondition checked after the run.
//
// Checks:
//
//	recovered_within   — every surviving supervised rank recovered from
//	                     each failure within `within` wall time.
//	outcome            — every surviving supervised rank ended with
//	                     outcome `equals` ("clean"|"recovered").
//	final_step         — every surviving rank reached `value` global
//	                     steps (0 = the job's step budget).
//	checkpoint_valid   — the newest checkpoint on disk loads and
//	                     validates against the scenario model.
//	throughput_floor   — images/sec >= value (trainsim: simulated;
//	                     train: measured — use generous floors).
//	straggler_flagged  — the detector flagged rank `rank`.
//	typed_errors       — the collectives soak observed >= value typed
//	                     peer errors.
//	min_dropped        — fault injection dropped >= value sends in total.
//	metric_min         — merged telemetry counter `metric` total >= value.
//	metric_max         — merged telemetry counter `metric` total <= value.
//	latency_p99_max    — the p99 of histogram `metric` (default
//	                     train.step_ns) stays <= `within` on every rank.
//	step_time_p50_max  — the median per-rank step time (train.step_ns by
//	                     default, or histogram `metric`) stays <= `within`.
//	world_size_final   — every surviving supervised rank ended on a world
//	                     of `value` ranks (0 = the job's full size): the
//	                     regrow brought everyone back.
//	regrown_within     — every surviving supervised rank took part in a
//	                     regrow, each within `within` wall time.
//	no_split_brain     — every surviving supervised rank reports the same
//	                     nonzero weights fingerprint and world size, and
//	                     any parked (minority) rank produced zero
//	                     optimizer updates while parked.
//	sched_complete     — the scheduler drained the whole stream: every job
//	                     ended Done or Evicted, none Failed, and no gang
//	                     deadlock had to be broken.
//	utilization_min    — cluster slot utilization >= value (0..1).
//	preemptions_min    — the scheduler performed >= value preemptions.
type Assert struct {
	Check  string       `json:"check"`
	Within job.Duration `json:"within,omitempty"`
	Value  float64      `json:"value,omitempty"`
	Rank   int          `json:"rank,omitempty"`
	Metric string       `json:"metric,omitempty"`
	Equals string       `json:"equals,omitempty"`
}

// Actions and checks the validator accepts.
var (
	validActions = map[string]bool{
		"kill_rank": true, "restart_rank": true, "rejoin": true,
		"partition": true, "heal": true,
		"straggle": true, "set_faults": true,
	}
	validChecks = map[string]bool{
		"recovered_within": true, "outcome": true, "final_step": true,
		"checkpoint_valid": true, "throughput_floor": true,
		"straggler_flagged": true, "typed_errors": true,
		"min_dropped": true, "metric_min": true, "metric_max": true,
		"latency_p99_max": true, "step_time_p50_max": true,
		"world_size_final": true, "regrown_within": true,
		"no_split_brain": true,
		"sched_complete": true, "utilization_min": true,
		"preemptions_min": true,
	}
)

// JobSpec is the job the scenario runs: its job block with the scenario's
// name and seed stamped in and the job schema's own defaults applied.
func (s *Spec) JobSpec() job.Spec {
	js := s.Job
	js.Name, js.Seed = s.Name, s.Seed
	js.WithDefaults()
	return js
}

// workload is a sched scenario's input with the scenario's name and seed
// stamped in.
func (s *Spec) workload() *job.Workload {
	w := *s.Workload
	w.Name, w.Seed = s.Name, s.Seed
	return &w
}

// harnessOwned rejects the job and workload keys the harness sets itself,
// naming what replaces each in a scenario file.
func (s *Spec) harnessOwned() error {
	w := s.Workload
	if w == nil {
		w = &job.Workload{}
	}
	for _, k := range []struct {
		set       bool
		key, with string
	}{
		{s.Job.Name != "", "job.name", "the scenario name"},
		{s.Job.Seed != 0, "job.seed", "the scenario seed"},
		{s.Job.CkptDir != "", "job.ckpt_dir", "scenario run -out"},
		{s.Job.DieRank != nil || s.Job.DieStep != 0, "job.die_rank/die_step", "a kill_rank timeline event"},
		{s.Job.Regrow, "job.regrow", "a restart_rank timeline event"},
		{w.Name != "", "workload.name", "the scenario name"},
		{w.Seed != 0, "workload.seed", "the scenario seed"},
	} {
		if k.set {
			return fmt.Errorf("scenario %s: %s is set by the harness; use %s", s.Name, k.key, k.with)
		}
	}
	return nil
}

// unusedKeys rejects job keys the scenario's kind never reads, instead of
// silently ignoring them: a scenario job is never queued, so the
// scheduler's keys have no meaning, and live kinds train the TinyCNN
// micro-model whatever the simulated workload names.
func (s *Spec) unusedKeys() error {
	j := s.Job
	for _, k := range []struct {
		set       bool
		key, with string
	}{
		{j.Tenant != "" || j.Priority != 0 || j.SubmitAt != 0 || j.Deadline != 0,
			"job.tenant/priority/submit_at/deadline", "a sched scenario's workload"},
		{s.Kind != "trainsim" && (j.Model != "" || j.Framework != "" || j.Platform != ""),
			"job.model/framework/platform", "a trainsim scenario"},
	} {
		if k.set {
			return fmt.Errorf("scenario %s: %s is unused by %s scenarios; it belongs in %s", s.Name, k.key, s.Kind, k.with)
		}
	}
	return nil
}

// Validate applies the harness's own defaults (kind, transport, vec_elems,
// the straggle trigger and factor) and rejects specs the runner cannot
// execute. The job and workload blocks stay as written: their defaults are
// the job schema's, applied where they are rendered.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if s.Kind == "" {
		s.Kind = "train"
	}
	live := s.Kind == "train" || s.Kind == "collectives"
	if live && s.Transport == "" {
		s.Transport = "inproc"
	}
	if s.Kind == "collectives" && s.VecElems <= 0 {
		s.VecElems = 2048
	}
	switch {
	case !live && s.Kind != "trainsim" && s.Kind != "sched":
		return fmt.Errorf("scenario %s: unknown kind %q (want train, collectives, trainsim or sched)", s.Name, s.Kind)
	case live && s.Transport != "inproc" && s.Transport != "tcp":
		return fmt.Errorf("scenario %s: unknown transport %q (want inproc or tcp)", s.Name, s.Transport)
	case !live && s.Transport != "":
		return fmt.Errorf("scenario %s: %s scenarios run on no live transport; drop transport", s.Name, s.Kind)
	case s.Kind != "collectives" && s.VecElems != 0:
		return fmt.Errorf("scenario %s: vec_elems applies to collectives scenarios", s.Name)
	}
	if err := s.harnessOwned(); err != nil {
		return err
	}
	if s.Kind == "sched" {
		switch {
		case s.Job != (job.Spec{}):
			return fmt.Errorf("scenario %s: sched scenarios declare their jobs under workload, not job", s.Name)
		case s.Workload == nil:
			return fmt.Errorf("scenario %s: sched scenarios need a workload", s.Name)
		case len(s.Timeline) > 0:
			return fmt.Errorf("scenario %s: sched scenarios take their whole event stream from the seed and support no timeline", s.Name)
		}
		if err := s.workload().Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	} else if s.Workload != nil {
		return fmt.Errorf("scenario %s: workload applies to sched scenarios", s.Name)
	}
	if err := s.unusedKeys(); err != nil {
		return err
	}
	js := s.JobSpec()
	if err := js.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	ranks := js.Ranks()
	if live && ranks < 2 {
		return fmt.Errorf("scenario %s: %s jobs need >= 2 ranks (job.nodes x job.ppn), got %d", s.Name, s.Kind, ranks)
	}
	// A second kill_rank for the same rank would silently shadow the first
	// (one process cannot crash twice); a storm kills distinct ranks.
	killed := map[int]bool{}
	for i, ev := range s.Timeline {
		if ev.Action != "kill_rank" {
			continue
		}
		if killed[ev.Rank] {
			return fmt.Errorf("scenario %s: timeline[%d]: duplicate kill_rank for rank %d", s.Name, i, ev.Rank)
		}
		killed[ev.Rank] = true
	}
	for i := range s.Timeline {
		ev := &s.Timeline[i]
		if !validActions[ev.Action] {
			return fmt.Errorf("scenario %s: timeline[%d]: unknown action %q", s.Name, i, ev.Action)
		}
		if ev.At > 0 {
			if ev.AtStep > 0 {
				return fmt.Errorf("scenario %s: timeline[%d]: set at most one of at and at_step", s.Name, i)
			}
			if s.Kind != "train" || (ev.Action != "partition" && ev.Action != "heal" && ev.Action != "set_faults") {
				return fmt.Errorf("scenario %s: timeline[%d]: wall-clock at applies only to partition, heal and set_faults of train jobs; use at_step", s.Name, i)
			}
		}
		switch ev.Action {
		case "kill_rank":
			if ev.AtStep < 1 {
				return fmt.Errorf("scenario %s: timeline[%d]: kill_rank needs at_step >= 1 (wall-clock kills do not replay)", s.Name, i)
			}
			if ev.AtStep >= int64(js.Steps) {
				return fmt.Errorf("scenario %s: timeline[%d]: kill_rank at_step %d must precede the %d-step budget", s.Name, i, ev.AtStep, js.Steps)
			}
		case "restart_rank", "rejoin":
			if s.Kind != "train" {
				return fmt.Errorf("scenario %s: timeline[%d]: %s applies to train jobs", s.Name, i, ev.Action)
			}
			if ev.AtStep < 1 {
				return fmt.Errorf("scenario %s: timeline[%d]: %s needs at_step >= 1 (fired from a survivor's step hook)", s.Name, i, ev.Action)
			}
			killed := false
			for _, k := range s.Timeline {
				if k.Action == "kill_rank" && k.Rank == ev.Rank && k.AtStep < ev.AtStep {
					killed = true
				}
			}
			if !killed {
				return fmt.Errorf("scenario %s: timeline[%d]: %s rank %d needs an earlier kill_rank for the same rank", s.Name, i, ev.Action, ev.Rank)
			}
		case "partition", "heal":
			if ev.AtStep < 1 && ev.At <= 0 {
				return fmt.Errorf("scenario %s: timeline[%d]: %s needs at_step or at", s.Name, i, ev.Action)
			}
		case "straggle":
			if s.Kind == "collectives" {
				return fmt.Errorf("scenario %s: timeline[%d]: straggle applies to train and trainsim jobs", s.Name, i)
			}
			if ev.AtStep <= 0 {
				ev.AtStep = 1
			}
			if ev.Factor <= 1 {
				ev.Factor = 2.0
			}
		case "set_faults":
			if ev.Faults == nil {
				return fmt.Errorf("scenario %s: timeline[%d]: set_faults needs a faults template", s.Name, i)
			}
			if ev.AtStep < 1 && ev.At <= 0 {
				return fmt.Errorf("scenario %s: timeline[%d]: set_faults needs at_step or at", s.Name, i)
			}
		}
		// A regrow needs the survivors to linger for the admission even when
		// it lands after their final step.
		regrows := ev.Action == "restart_rank" || ev.Action == "rejoin" || (ev.Action == "heal" && js.Elastic)
		if regrows && js.RegrowWait <= 0 {
			return fmt.Errorf("scenario %s: timeline[%d]: %s regrows the world; set job.regrow_wait so survivors wait for the joiner", s.Name, i, ev.Action)
		}
		if ev.Rank < 0 || (ev.Action != "set_faults" && ev.Rank >= ranks) {
			return fmt.Errorf("scenario %s: timeline[%d]: rank %d out of range [0,%d)", s.Name, i, ev.Rank, ranks)
		}
		if s.Kind == "trainsim" && ev.Action != "straggle" {
			return fmt.Errorf("scenario %s: timeline[%d]: trainsim jobs support only straggle events", s.Name, i)
		}
	}
	for i, a := range s.Asserts {
		if !validChecks[a.Check] {
			return fmt.Errorf("scenario %s: asserts[%d]: unknown check %q", s.Name, i, a.Check)
		}
		switch a.Check {
		case "recovered_within", "regrown_within":
			if a.Within <= 0 {
				return fmt.Errorf("scenario %s: asserts[%d]: %s needs within > 0", s.Name, i, a.Check)
			}
		case "outcome":
			if a.Equals != "clean" && a.Equals != "recovered" {
				return fmt.Errorf("scenario %s: asserts[%d]: outcome equals must be clean or recovered", s.Name, i)
			}
		case "metric_min", "metric_max":
			if a.Metric == "" {
				return fmt.Errorf("scenario %s: asserts[%d]: %s needs a metric name", s.Name, i, a.Check)
			}
		case "latency_p99_max", "step_time_p50_max":
			if a.Within <= 0 {
				return fmt.Errorf("scenario %s: asserts[%d]: %s needs within > 0 (the latency bound)", s.Name, i, a.Check)
			}
		case "straggler_flagged":
			if a.Rank < 0 || a.Rank >= ranks {
				return fmt.Errorf("scenario %s: asserts[%d]: rank %d out of range [0,%d)", s.Name, i, a.Rank, ranks)
			}
		case "sched_complete", "utilization_min", "preemptions_min":
			if s.Kind != "sched" {
				return fmt.Errorf("scenario %s: asserts[%d]: %s applies to sched jobs", s.Name, i, a.Check)
			}
			if a.Check == "utilization_min" && (a.Value <= 0 || a.Value > 1) {
				return fmt.Errorf("scenario %s: asserts[%d]: utilization_min value must be in (0,1], got %g", s.Name, i, a.Value)
			}
		}
	}
	return nil
}
