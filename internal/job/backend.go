package job

import (
	"fmt"
	"sync/atomic"
	"time"

	"dnnperf/internal/train"
	"dnnperf/internal/trainsim"
)

// Result is a backend's report for one job segment (submission → clean end,
// failure, or preemption halt).
type Result struct {
	// Outcome is "clean", "recovered", "preempted", "failed" or "simulated".
	Outcome string `json:"outcome"`
	// FinalStep is the global step the job durably reached.
	FinalStep int64 `json:"final_step"`
	// WorldSize is the gang size at the end of the segment.
	WorldSize int `json:"world_size"`
	// WeightsCRC fingerprints the final model+optimizer state; every
	// surviving rank of a run must agree (real backends only).
	WeightsCRC uint32 `json:"weights_crc,omitempty"`
	// ImagesPerSec is per-rank measured (real) or aggregate simulated (sim)
	// throughput.
	ImagesPerSec float64 `json:"images_per_sec,omitempty"`
	Recoveries   int     `json:"recoveries,omitempty"`
	Regrows      int     `json:"regrows,omitempty"`
	// Preempted marks a cooperative halt: the job checkpointed and can
	// resume from FinalStep.
	Preempted bool `json:"preempted,omitempty"`
	// Bottleneck attributes the job's limiting resource ("compute" or
	// "network"); CommFrac is the exposed-communication fraction of step
	// time behind that call. Real backends measure it from per-step
	// allreduce wait; the sim backend from the simulator's exposed comm.
	Bottleneck string  `json:"bottleneck,omitempty"`
	CommFrac   float64 `json:"comm_frac,omitempty"`
	// PerRank holds each original rank's supervised result (nil for ranks
	// that died or were simulated).
	PerRank []*train.SupervisorResult `json:"-"`
	// Sim is the simulator's report (sim backend only).
	Sim *trainsim.Result `json:"sim,omitempty"`
}

// RunContext carries one launch through a backend: the spec, the resume
// flag, optional observers, and the preemption channel — the scheduler
// calls Preempt and the backend's ranks halt cooperatively at a uniform
// step boundary.
type RunContext struct {
	Spec Spec
	// Resume restores from the newest checkpoint in Spec.CkptDir (a
	// previously preempted segment's state).
	Resume bool
	// OnStep, if set, observes every rank's completed steps.
	OnStep func(rank int, step int64, st train.StepStats)

	haltAt  atomic.Int64
	maxStep atomic.Int64
}

// Preempt asks the running job to halt cooperatively: the boundary is set
// three steps past the highest completed step observed so far, which —
// because synchronous data parallelism bounds the cross-rank spread to one
// step — every rank reaches and none has passed, so the gang halts
// uniformly, checkpoints, and ends with Outcome "preempted". Idempotent:
// only the first call arms the boundary.
func (rc *RunContext) Preempt() {
	rc.haltAt.CompareAndSwap(0, rc.maxStep.Load()+3)
}

// recordStep feeds the preemption boundary tracker.
func (rc *RunContext) recordStep(step int64) {
	for {
		cur := rc.maxStep.Load()
		if step <= cur || rc.maxStep.CompareAndSwap(cur, step) {
			return
		}
	}
}

// Backend launches one admitted gang and blocks until the segment ends.
type Backend interface {
	// Name identifies the backend in logs and reports.
	Name() string
	// Run executes the job until completion, failure, or a Preempt halt.
	Run(rc *RunContext) (*Result, error)
}

// runLive is the path both real backends share: stage the spec's gang over
// transport, run it through the Fleet (the spec's DieRank crash demo rides
// in the doomed rank's rendered config), and wire the preemption boundary
// and the caller's observer into every rank.
func runLive(rc *RunContext, transport string) (*Result, error) {
	spec := &rc.Spec
	fleet, err := NewFleet(spec, transport)
	if err != nil {
		return nil, err
	}
	res, errs := fleet.Run(nil, func(r int, cfg *train.SupervisorConfig) {
		cfg.OnStep = func(step int64, st train.StepStats) {
			rc.recordStep(step)
			if rc.OnStep != nil {
				rc.OnStep(r, step, st)
			}
		}
		cfg.HaltAt = rc.haltAt.Load
	})
	for r, err := range errs {
		if err != nil {
			return res, fmt.Errorf("job %s: rank %d: %w", spec.Name, r, err)
		}
	}
	if res.Outcome == "" {
		return res, fmt.Errorf("job %s: no surviving ranks", spec.Name)
	}
	return res, nil
}

// attributeBottleneck classifies a segment from its measured steps: the
// fraction of step wall time spent blocked on gradient allreduces decides
// whether the job was network- or compute-bound.
func attributeBottleneck(steps []train.StepStats) (string, float64) {
	var wall, wait time.Duration
	for _, st := range steps {
		wall += st.Duration
		wait += st.CommWait
	}
	if wall <= 0 {
		return "", 0
	}
	frac := float64(wait) / float64(wall)
	if frac >= 0.5 {
		return "network", frac
	}
	return "compute", frac
}

// InprocBackend runs the gang as goroutines over an in-process mpi world —
// the fastest real (non-simulated) backend, used for tests and small
// dnnsched jobs.
type InprocBackend struct{}

func (InprocBackend) Name() string { return "inproc" }

func (InprocBackend) Run(rc *RunContext) (*Result, error) { return runLive(rc, "inproc") }

// TCPBackend runs the gang over real loopback sockets — the same transport
// the mpirun worker processes use, in one process.
type TCPBackend struct{}

func (TCPBackend) Name() string { return "tcp" }

func (TCPBackend) Run(rc *RunContext) (*Result, error) { return runLive(rc, "tcp") }
