// Package job unifies the tree's job lifecycle: one Spec schema every
// launch path parses (cmd/mpirun, cmd/dnnsched, the experiment runner, the
// scenario harness), one Handle state machine tracking a job from submission
// to completion, and one Backend interface with three implementations —
// inproc, tcp (the same over real loopback sockets), and sim (the trainsim
// analytical simulator). Every rank of every real job runs train.Supervise,
// the tree's only rank loop; what a spec says — elastic, die_rank, the
// recovery budget — reaches it as data in the config Spec.SupervisorConfig
// renders, never as a choice of code path. Every live in-process gang is
// staged and run by the Fleet in fleet.go — the single rank fan-out
// (supervised ranks, restarted joiners, and which survivor speaks for the
// job) that the two real backends, the scenario harness and the experiment
// runner call; mpirun's worker processes share its per-rank staging step,
// Spec.WrapComm, and the same rendered config.
// The gang scheduler in scheduler.go drives thousands of simulated jobs and
// real small jobs through the identical policy code, with preemption
// implemented as a cooperative elastic halt + checkpoint + later regrow.
package job

import (
	"fmt"
	"os"
	"time"

	"dnnperf/internal/hw"
	"dnnperf/internal/yamlite"
)

// Duration aliases the shared yamlite.Duration so job specs accept "250ms"
// strings and bare numbers of seconds, exactly like scenario files.
type Duration = yamlite.Duration

// Faults is a fault-rate template applied to every rank's transport (see
// mpi.FaultConfig); the per-rank random streams derive from the spec seed.
type Faults struct {
	DropProb  float64  `json:"drop_prob,omitempty"`
	DelayProb float64  `json:"delay_prob,omitempty"`
	Delay     Duration `json:"delay,omitempty"`
	DupProb   float64  `json:"dup_prob,omitempty"`
}

// Spec is one job: identity and placement shape for the scheduler, the
// training workload, and the elastic/fault configuration. The same schema
// is parsed by `mpirun -job` and by dnnsched workload files, so a spec
// debugged standalone schedules unchanged.
type Spec struct {
	// Name identifies the job in reports and logs.
	Name string `json:"name,omitempty"`
	// Tenant attributes the job for per-tenant queueing/JCT/utilization
	// accounting (default "default").
	Tenant string `json:"tenant,omitempty"`
	// Priority orders admission; a higher-priority job may preempt running
	// lower-priority gangs (default 0).
	Priority int `json:"priority,omitempty"`

	// Nodes × PPN is the gang: the scheduler allocates PPN slots on each of
	// Nodes distinct nodes, all-or-nothing. Defaults 1×1.
	Nodes int `json:"nodes,omitempty"`
	PPN   int `json:"ppn,omitempty"`

	// Model/Framework/Platform select the simulated workload (sim backend;
	// the hw catalog label names the platform). The real backends train the
	// deterministic TinyCNN micro-model regardless — Spec.Batch and Steps
	// still rule. Defaults: resnet50, tensorflow, Skylake-1.
	Model     string `json:"model,omitempty"`
	Framework string `json:"framework,omitempty"`
	Platform  string `json:"platform,omitempty"`
	// Batch is the per-rank minibatch (default 4).
	Batch int `json:"batch,omitempty"`
	// Steps is the global step budget (default 8).
	Steps int `json:"steps,omitempty"`
	// CycleTime is the Horovod engine cycle time (default 300µs).
	CycleTime Duration `json:"cycle_time,omitempty"`
	// AllreduceAlg forces the collective algorithm ("auto", "ring",
	// "recursive_doubling"); SegmentBytes sets ring pipelining.
	AllreduceAlg string `json:"allreduce_alg,omitempty"`
	SegmentBytes int    `json:"segment_bytes,omitempty"`
	IntraThreads int    `json:"intra_threads,omitempty"`
	InterThreads int    `json:"inter_threads,omitempty"`
	// LRPolicy is "constant" (momentum at a fixed rate, the default) or
	// "scaled" (linear-scaling warmup schedule over the global batch).
	LRPolicy string `json:"lr_policy,omitempty"`
	// Seed drives data sharding and simulator jitter (default 42).
	Seed int64 `json:"seed,omitempty"`

	// Elastic is data, not a code path (every job runs train.Supervise). It
	// sets the recovery budget (MaxRecoveries, default 2; a rigid job has none
	// and fails with a typed *mpi.PeerError on the first rank loss), the
	// CkptEvery default of 2, and eligibility for dnnsched's preemption.
	Elastic bool `json:"elastic,omitempty"`
	// CkptDir/CkptEvery configure checkpointing; a preempted job resumes
	// from the newest checkpoint in CkptDir. The scheduler assigns a
	// directory when preemption needs one and the spec left it empty.
	CkptDir   string `json:"ckpt_dir,omitempty"`
	CkptEvery int    `json:"ckpt_every,omitempty"`
	// Regrow asks the launcher to relaunch a killed rank so it rejoins and
	// the world grows back (mpirun's standalone regrow demo; the scheduler
	// re-places parked jobs itself and ignores it).
	Regrow bool `json:"regrow,omitempty"`
	// RegrowWait keeps finished ranks lingering for late rejoiners;
	// MaxRecoveries is an elastic job's recovery budget (default 2,
	// -1 = unlimited).
	RegrowWait    Duration `json:"regrow_wait,omitempty"`
	MaxRecoveries int      `json:"max_recoveries,omitempty"`
	// RecvTimeout bounds blocking receives (defaults: 500ms inproc, 1s tcp).
	RecvTimeout Duration `json:"recv_timeout,omitempty"`
	// Faults installs a fault-rate template on every rank's transport.
	Faults *Faults `json:"faults,omitempty"`
	// DieRank, if set, makes that rank abort its transport after completing
	// DieStep — the crash-recovery demo as a spec instead of a flag.
	DieRank *int  `json:"die_rank,omitempty"`
	DieStep int64 `json:"die_step,omitempty"`

	// SubmitAt offsets this job's submission in a workload stream.
	SubmitAt Duration `json:"submit_at,omitempty"`
	// Deadline, if set, is the target JCT (submission → completion) for
	// deadline-miss reporting. Advisory: the scheduler never kills for it.
	Deadline Duration `json:"deadline,omitempty"`
}

// Ranks is the gang size: Nodes × PPN slots, one rank per slot.
func (s *Spec) Ranks() int { return s.Nodes * s.PPN }

// WithDefaults fills zero values with the documented defaults.
func (s *Spec) WithDefaults() {
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if s.Nodes <= 0 {
		s.Nodes = 1
	}
	if s.PPN <= 0 {
		s.PPN = 1
	}
	if s.Model == "" {
		s.Model = "resnet50"
	}
	if s.Framework == "" {
		s.Framework = "tensorflow"
	}
	if s.Platform == "" {
		s.Platform = "Skylake-1"
	}
	if s.Batch <= 0 {
		s.Batch = 4
	}
	if s.Steps <= 0 {
		s.Steps = 8
	}
	if s.CycleTime <= 0 {
		s.CycleTime = Duration(300 * time.Microsecond)
	}
	if s.LRPolicy == "" {
		s.LRPolicy = "constant"
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.Elastic && s.CkptEvery <= 0 {
		s.CkptEvery = 2
	}
	if s.Elastic && s.MaxRecoveries == 0 {
		s.MaxRecoveries = 2
	}
}

// Validate applies defaults and rejects specs no backend can run.
func (s *Spec) Validate() error {
	s.WithDefaults()
	if s.Steps < 1 {
		return fmt.Errorf("job %s: steps %d < 1", s.Name, s.Steps)
	}
	switch s.LRPolicy {
	case "constant", "scaled":
	default:
		return fmt.Errorf("job %s: unknown lr_policy %q (want constant or scaled)", s.Name, s.LRPolicy)
	}
	if s.Regrow && !s.Elastic {
		return fmt.Errorf("job %s: regrow requires elastic", s.Name)
	}
	if s.MaxRecoveries != 0 && !s.Elastic {
		return fmt.Errorf("job %s: max_recoveries requires elastic (a rigid job has no recovery budget)", s.Name)
	}
	if s.DieRank != nil {
		if *s.DieRank < 0 || *s.DieRank >= s.Ranks() {
			return fmt.Errorf("job %s: die_rank %d out of range [0,%d)", s.Name, *s.DieRank, s.Ranks())
		}
		if s.DieStep < 1 || s.DieStep >= int64(s.Steps) {
			return fmt.Errorf("job %s: die_step %d must be in [1,%d)", s.Name, s.DieStep, s.Steps)
		}
	}
	if f := s.Faults; f != nil {
		for _, p := range []float64{f.DropProb, f.DelayProb, f.DupProb} {
			if p < 0 || p > 1 {
				return fmt.Errorf("job %s: fault probability %g outside [0,1]", s.Name, p)
			}
		}
	}
	return nil
}

// ParseSpec decodes one job spec from YAML or JSON and validates it.
func ParseSpec(src []byte) (*Spec, error) {
	spec := &Spec{}
	if err := yamlite.Unmarshal(src, spec); err != nil {
		return nil, fmt.Errorf("job: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// LoadSpec reads and parses a job spec file.
func LoadSpec(path string) (*Spec, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, err := ParseSpec(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// ClusterSpec shapes the scheduler's slot grid: Nodes machines of the named
// hw-catalog platform, SlotsPerNode schedulable slots each (one rank per
// slot).
type ClusterSpec struct {
	Platform     string `json:"platform,omitempty"`
	Nodes        int    `json:"nodes,omitempty"`
	SlotsPerNode int    `json:"slots_per_node,omitempty"`
}

func (c *ClusterSpec) withDefaults() {
	if c.Platform == "" {
		c.Platform = "Skylake-1"
	}
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.SlotsPerNode <= 0 {
		c.SlotsPerNode = 8
	}
}

// Validate applies defaults and checks the platform against the hw catalog.
func (c *ClusterSpec) Validate() error {
	c.withDefaults()
	if _, err := hw.ByLabel(c.Platform); err != nil {
		return fmt.Errorf("job: cluster platform: %w", err)
	}
	return nil
}

// Slots is the cluster's total slot capacity.
func (c *ClusterSpec) Slots() int { return c.Nodes * c.SlotsPerNode }

// SynthSpec asks the scheduler to synthesize a deterministic job stream
// from the workload seed instead of (or in addition to) explicit jobs.
type SynthSpec struct {
	// Jobs is the stream length.
	Jobs int `json:"jobs"`
	// Tenants is the number of synthetic tenants (default 3).
	Tenants int `json:"tenants,omitempty"`
}

// Workload is a dnnsched input: the cluster, scheduler policy knobs, and a
// job stream (explicit, synthetic, or both).
type Workload struct {
	Name string `json:"name,omitempty"`
	// Seed drives the synthetic stream and all simulator jitter; the same
	// seed replays the same schedule byte-for-byte in discrete-event mode.
	Seed    int64       `json:"seed,omitempty"`
	Cluster ClusterSpec `json:"cluster"`
	// NoPreempt disables priority preemption (admission stays
	// priority-ordered).
	NoPreempt bool `json:"no_preempt,omitempty"`
	// PreemptLatency is the simulated checkpoint+halt cost charged when a
	// discrete-event job is preempted (default 750ms — the measured PR-3
	// recovery latency).
	PreemptLatency Duration   `json:"preempt_latency,omitempty"`
	Jobs           []Spec     `json:"jobs,omitempty"`
	Synth          *SynthSpec `json:"synth,omitempty"`
}

// Validate applies defaults and validates the cluster plus every job.
func (w *Workload) Validate() error {
	if w.Name == "" {
		w.Name = "workload"
	}
	if w.Seed == 0 {
		w.Seed = 1
	}
	if w.PreemptLatency <= 0 {
		w.PreemptLatency = Duration(750 * time.Millisecond)
	}
	if err := w.Cluster.Validate(); err != nil {
		return err
	}
	if w.Synth != nil {
		if w.Synth.Jobs < 1 {
			return fmt.Errorf("job: synth stream needs jobs >= 1")
		}
		if w.Synth.Tenants <= 0 {
			w.Synth.Tenants = 3
		}
	}
	for i := range w.Jobs {
		j := &w.Jobs[i]
		if j.Name == "" {
			j.Name = fmt.Sprintf("job-%d", i)
		}
		if err := j.Validate(); err != nil {
			return err
		}
	}
	if len(w.Jobs) == 0 && w.Synth == nil {
		return fmt.Errorf("job: workload %s has no jobs and no synth stream", w.Name)
	}
	return nil
}

// ParseWorkload decodes a workload from YAML or JSON and validates it.
func ParseWorkload(src []byte) (*Workload, error) {
	w := &Workload{}
	if err := yamlite.Unmarshal(src, w); err != nil {
		return nil, fmt.Errorf("job: %w", err)
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// LoadWorkload reads and parses a workload file.
func LoadWorkload(path string) (*Workload, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	w, err := ParseWorkload(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return w, nil
}
