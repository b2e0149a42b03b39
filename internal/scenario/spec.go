// Package scenario is the declarative chaos harness: a scenario file
// declares a fleet, a training job, a timeline of seeded fault events and a
// list of assertions, and the runner executes it end to end against the
// functional stack (inproc or TCP transports, elastic supervised training,
// the fault-injection transport, the straggler detector) or the
// discrete-event simulator for large fleets. Runs are deterministic from
// the scenario seed: the same file run twice produces byte-identical event
// logs, which is what makes a chaos failure replayable instead of
// anecdotal.
package scenario

import (
	"fmt"
	"time"

	"dnnperf/internal/job"
	"dnnperf/internal/yamlite"
)

// Duration aliases the shared yamlite.Duration: a time.Duration that
// unmarshals from either a Go duration string ("250ms", "2s") or a bare
// JSON number of seconds, so scenario files can write `at: 2s` and
// `recv_timeout: 0.5` interchangeably.
type Duration = yamlite.Duration

// Spec is one scenario file: what to run, what to break, what must hold.
type Spec struct {
	// Name identifies the scenario in reports and logs.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed drives every random stream in the run (fault injection, data
	// sharding, simulator jitter). Two runs with the same seed replay the
	// same event sequence.
	Seed  int64 `json:"seed"`
	Fleet Fleet `json:"fleet"`
	Job   Job   `json:"job"`
	// Sched configures a "sched" job: the simulated cluster and synthetic
	// multi-tenant workload the dnnsched control plane schedules.
	Sched *Sched `json:"sched,omitempty"`
	// Faults is the initial fault-rate template applied to every rank's
	// transport; nil starts clean. A set_faults timeline event swaps it
	// mid-run.
	Faults   *Faults  `json:"faults,omitempty"`
	Timeline []Event  `json:"timeline,omitempty"`
	Asserts  []Assert `json:"asserts,omitempty"`
}

// Sched declares a cluster-scheduling scenario: a synthetic job stream
// pushed through the dnnsched gang scheduler on the discrete-event clock.
// Everything is derived from the scenario seed, so the scheduler's event
// log and per-tenant report replay byte-identically.
type Sched struct {
	// Platform names the hw catalog entry backing the simulated nodes
	// (default Skylake-1).
	Platform string `json:"platform,omitempty"`
	// Nodes/SlotsPerNode shape the cluster (defaults 4 nodes x 8 slots).
	Nodes        int `json:"nodes,omitempty"`
	SlotsPerNode int `json:"slots_per_node,omitempty"`
	// Jobs is the synthetic stream length (default 200); Tenants the number
	// of tenants it is spread across (default 3).
	Jobs    int `json:"jobs,omitempty"`
	Tenants int `json:"tenants,omitempty"`
	// NoPreempt disables priority preemption, for A/B runs.
	NoPreempt bool `json:"no_preempt,omitempty"`
}

// Fleet declares the ranks and the transport they run on.
type Fleet struct {
	// Ranks is the job size (ignored for trainsim, where Nodes*PPN rules).
	Ranks int `json:"ranks,omitempty"`
	// Transport is "inproc" (default), "tcp" (real loopback sockets) or
	// "trainsim" (the discrete-event simulator; no live transport).
	Transport string `json:"transport,omitempty"`
	// RecvTimeout bounds each Recv so faults convert to typed errors
	// instead of hangs. Zero takes the job fleet's per-transport default
	// (500ms inproc, 1s tcp).
	RecvTimeout Duration `json:"recv_timeout,omitempty"`
	// Nodes/PPN shape the simulated cluster for trainsim fleets.
	Nodes int `json:"nodes,omitempty"`
	PPN   int `json:"ppn,omitempty"`
}

// Job declares the work the fleet performs.
type Job struct {
	// Kind is "train" (default: real supervised SGD through the Horovod
	// engine), "collectives" (a direct allreduce soak on the raw comm
	// layer), "trainsim" (the analytical simulator) or "sched" (a synthetic
	// multi-tenant workload through the dnnsched gang scheduler).
	Kind string `json:"kind,omitempty"`
	// Steps is the global step budget (train), synthesized steps
	// (trainsim straggler runs) — default 8.
	Steps int `json:"steps,omitempty"`
	// Batch is the per-rank minibatch for train jobs (default 4).
	Batch int `json:"batch,omitempty"`
	// CycleTime is the Horovod engine cycle time (default 300µs).
	CycleTime Duration `json:"cycle_time,omitempty"`
	// Elastic marks the job as expecting failures: kill/partition events
	// should end in recovery, not in a dead run. Training always runs
	// supervised; the flag is the job.Spec one — the recovery budget (2
	// rank losses; a rigid job fails typed on the first) and the default
	// for CkptEvery.
	Elastic bool `json:"elastic,omitempty"`
	// CkptEvery is the checkpoint period in steps (default 2 for elastic
	// jobs, 0 otherwise).
	CkptEvery int `json:"ckpt_every,omitempty"`
	// AllreduceAlg forces the collective algorithm: "auto", "ring",
	// "recursive_doubling".
	AllreduceAlg string `json:"allreduce_alg,omitempty"`
	// SegmentBytes sets the ring pipelining segment size (0 = default).
	SegmentBytes int `json:"segment_bytes,omitempty"`
	// RegrowWait keeps finished ranks lingering while the world is smaller
	// than it started, so a late rejoiner (a healed partition, a
	// restart_rank event) is still admitted. Defaults to 30s when the
	// timeline carries a restart_rank/rejoin event or a heal of an elastic
	// job, 0 otherwise.
	RegrowWait Duration `json:"regrow_wait,omitempty"`

	// Collectives jobs: vector length in float32 elements (default 2048)
	// and number of allreduce rounds (default 5).
	VecElems int `json:"vec_elems,omitempty"`
	Rounds   int `json:"rounds,omitempty"`

	// Trainsim jobs: experiment point (defaults: resnet50, tensorflow,
	// Skylake-1, batch 32).
	Model        string `json:"model,omitempty"`
	Framework    string `json:"framework,omitempty"`
	CPU          string `json:"cpu,omitempty"`
	BatchPerProc int    `json:"batch_per_proc,omitempty"`
}

// Faults is the job schema's fault-rate template (see mpi.FaultConfig); the
// per-rank random streams are derived from the scenario seed.
type Faults = job.Faults

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
//	straggle     — from step at_step on, slow rank's compute by factor
//	               (sleeps (factor-1)x the step's measured compute time).
//	set_faults   — swap every rank's fault-rate template for faults.
type Event struct {
	// At triggers on wall-clock time from run start (partition, heal,
	// set_faults only — wall-clock kills would not replay).
	At Duration `json:"at,omitempty"`
	// AtStep triggers when a rank completes global step AtStep (for
	// collectives jobs: before round AtStep).
	AtStep int64  `json:"at_step,omitempty"`
	Action string `json:"action"`
	// Rank is the event's target (kill_rank, partition, heal, straggle).
	Rank int `json:"rank,omitempty"`
	// Factor is the straggle slowdown multiplier (> 1).
	Factor float64 `json:"factor,omitempty"`
	// Faults is the template a set_faults event installs.
	Faults *Faults `json:"faults,omitempty"`
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
//	                     of `value` ranks (0 = the fleet's full size): the
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
	Check  string   `json:"check"`
	Within Duration `json:"within,omitempty"`
	Value  float64  `json:"value,omitempty"`
	Rank   int      `json:"rank,omitempty"`
	Metric string   `json:"metric,omitempty"`
	Equals string   `json:"equals,omitempty"`
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

// withDefaults fills the spec's zero values with the documented defaults
// and returns the effective rank count.
func (s *Spec) withDefaults() {
	if s.Fleet.Transport == "" {
		s.Fleet.Transport = "inproc"
	}
	if s.Job.Kind == "" {
		s.Job.Kind = "train"
	}
	if s.Job.Steps <= 0 {
		s.Job.Steps = 8
	}
	if s.Job.Batch <= 0 {
		s.Job.Batch = 4
	}
	if s.Job.CycleTime <= 0 {
		s.Job.CycleTime = Duration(300 * time.Microsecond)
	}
	if s.Job.Elastic && s.Job.CkptEvery <= 0 {
		s.Job.CkptEvery = 2
	}
	if s.Job.Kind == "collectives" {
		if s.Job.VecElems <= 0 {
			s.Job.VecElems = 2048
		}
		if s.Job.Rounds <= 0 {
			s.Job.Rounds = 5
		}
	}
	if s.Job.Kind == "trainsim" {
		if s.Fleet.Nodes <= 0 {
			s.Fleet.Nodes = 2
		}
		if s.Fleet.PPN <= 0 {
			s.Fleet.PPN = 1
		}
		s.Fleet.Ranks = s.Fleet.Nodes * s.Fleet.PPN
		if s.Job.Model == "" {
			s.Job.Model = "resnet50"
		}
		if s.Job.Framework == "" {
			s.Job.Framework = "tensorflow"
		}
		if s.Job.CPU == "" {
			s.Job.CPU = "Skylake-1"
		}
		if s.Job.BatchPerProc <= 0 {
			s.Job.BatchPerProc = 32
		}
		s.Job.Steps = max(s.Job.Steps, 2)
	} else if s.Job.Kind != "sched" && s.Fleet.Ranks <= 0 {
		s.Fleet.Ranks = 2
	}
	if s.Job.Kind == "sched" {
		if s.Sched == nil {
			s.Sched = &Sched{}
		}
		if s.Sched.Platform == "" {
			s.Sched.Platform = "Skylake-1"
		}
		if s.Sched.Nodes <= 0 {
			s.Sched.Nodes = 4
		}
		if s.Sched.SlotsPerNode <= 0 {
			s.Sched.SlotsPerNode = 8
		}
		if s.Sched.Jobs <= 0 {
			s.Sched.Jobs = 200
		}
		if s.Sched.Tenants <= 0 {
			s.Sched.Tenants = 3
		}
	}
	// Straggle events default to firing from step 1.
	for i := range s.Timeline {
		ev := &s.Timeline[i]
		if ev.Action == "straggle" && ev.AtStep <= 0 {
			ev.AtStep = 1
		}
		if ev.Action == "straggle" && ev.Factor <= 1 {
			ev.Factor = 2.0
		}
	}
	// A timeline that regrows the world needs the survivors to stick around
	// for the admission even when it lands after their final step.
	if s.Job.RegrowWait == 0 {
		for _, ev := range s.Timeline {
			if ev.Action == "restart_rank" || ev.Action == "rejoin" ||
				(ev.Action == "heal" && s.Job.Elastic) {
				s.Job.RegrowWait = Duration(30 * time.Second)
				break
			}
		}
	}
}

// Validate applies defaults and rejects specs the runner cannot execute.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	s.withDefaults()
	switch s.Fleet.Transport {
	case "inproc", "tcp", "trainsim":
	default:
		return fmt.Errorf("scenario %s: unknown transport %q (want inproc, tcp or trainsim)", s.Name, s.Fleet.Transport)
	}
	switch s.Job.Kind {
	case "train", "collectives":
		if s.Fleet.Transport == "trainsim" {
			return fmt.Errorf("scenario %s: job kind %q needs a live transport, not trainsim", s.Name, s.Job.Kind)
		}
		if s.Fleet.Ranks < 2 {
			return fmt.Errorf("scenario %s: %s jobs need >= 2 ranks, got %d", s.Name, s.Job.Kind, s.Fleet.Ranks)
		}
	case "trainsim":
		if s.Fleet.Transport != "trainsim" {
			return fmt.Errorf("scenario %s: trainsim jobs run on the trainsim transport", s.Name)
		}
	case "sched":
		if len(s.Timeline) > 0 {
			return fmt.Errorf("scenario %s: sched jobs take their whole event stream from the seed and support no timeline", s.Name)
		}
	default:
		return fmt.Errorf("scenario %s: unknown job kind %q (want train, collectives, trainsim or sched)", s.Name, s.Job.Kind)
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
	for i, ev := range s.Timeline {
		if !validActions[ev.Action] {
			return fmt.Errorf("scenario %s: timeline[%d]: unknown action %q", s.Name, i, ev.Action)
		}
		switch ev.Action {
		case "kill_rank":
			if ev.AtStep < 1 {
				return fmt.Errorf("scenario %s: timeline[%d]: kill_rank needs at_step >= 1 (wall-clock kills do not replay)", s.Name, i)
			}
			if ev.AtStep >= int64(s.Job.Steps) {
				return fmt.Errorf("scenario %s: timeline[%d]: kill_rank at_step %d must precede the %d-step budget", s.Name, i, ev.AtStep, s.Job.Steps)
			}
		case "restart_rank", "rejoin":
			if s.Job.Kind != "train" {
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
			if s.Job.Kind == "collectives" {
				return fmt.Errorf("scenario %s: timeline[%d]: straggle applies to train and trainsim jobs", s.Name, i)
			}
		case "set_faults":
			if ev.Faults == nil {
				return fmt.Errorf("scenario %s: timeline[%d]: set_faults needs a faults template", s.Name, i)
			}
			if ev.AtStep < 1 && ev.At <= 0 {
				return fmt.Errorf("scenario %s: timeline[%d]: set_faults needs at_step or at", s.Name, i)
			}
		}
		if ev.Rank < 0 || (ev.Action != "set_faults" && ev.Rank >= s.Fleet.Ranks) {
			return fmt.Errorf("scenario %s: timeline[%d]: rank %d out of range [0,%d)", s.Name, i, ev.Rank, s.Fleet.Ranks)
		}
		if s.Job.Kind == "trainsim" && ev.Action != "straggle" {
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
			if a.Rank < 0 || a.Rank >= s.Fleet.Ranks {
				return fmt.Errorf("scenario %s: asserts[%d]: rank %d out of range [0,%d)", s.Name, i, a.Rank, s.Fleet.Ranks)
			}
		case "sched_complete", "utilization_min", "preemptions_min":
			if s.Job.Kind != "sched" {
				return fmt.Errorf("scenario %s: asserts[%d]: %s applies to sched jobs", s.Name, i, a.Check)
			}
			if a.Check == "utilization_min" && (a.Value <= 0 || a.Value > 1) {
				return fmt.Errorf("scenario %s: asserts[%d]: utilization_min value must be in (0,1], got %g", s.Name, i, a.Value)
			}
		}
	}
	return nil
}
