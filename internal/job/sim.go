package job

import (
	"fmt"
	"sync"
	"time"

	"dnnperf/internal/trainsim"
)

// SimBackend runs jobs through the trainsim analytical simulator — no
// transport, pure math on the seed — and doubles as the discrete-event
// scheduler's duration estimator. Results are cached per distinct
// configuration: a thousand-job synthetic stream collapses to the handful
// of unique (model, platform, shape) points it actually contains.
type SimBackend struct {
	mu    sync.Mutex
	cache map[string]*trainsim.Result
}

// NewSimBackend returns a SimBackend with an empty result cache.
func NewSimBackend() *SimBackend {
	return &SimBackend{cache: map[string]*trainsim.Result{}}
}

func (b *SimBackend) Name() string { return "sim" }

// Run simulates the job: the result carries the simulator's throughput and
// iteration time, and FinalStep jumps straight to the budget.
func (b *SimBackend) Run(rc *RunContext) (*Result, error) {
	spec := &rc.Spec
	sim, err := b.simulate(spec)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Outcome:      "simulated",
		FinalStep:    int64(spec.Steps),
		WorldSize:    spec.Ranks(),
		ImagesPerSec: sim.ImagesPerSec,
		Sim:          sim,
	}
	if sim.IterTimeSec > 0 {
		res.CommFrac = sim.ExposedCommSec / sim.IterTimeSec
		if res.CommFrac >= 0.5 {
			res.Bottleneck = "network"
		} else {
			res.Bottleneck = "compute"
		}
	}
	return res, nil
}

// IterTime is the discrete-event estimator: the simulated per-iteration
// wall time for the spec's configuration.
func (b *SimBackend) IterTime(spec *Spec) (time.Duration, error) {
	sim, err := b.simulate(spec)
	if err != nil {
		return 0, err
	}
	d := time.Duration(sim.IterTimeSec * float64(time.Second))
	if d <= 0 {
		d = time.Millisecond
	}
	return d, nil
}

func (b *SimBackend) simulate(spec *Spec) (*trainsim.Result, error) {
	key := fmt.Sprintf("%s|%s|%s|%dx%d|b%d|t%d.%d|s%d",
		spec.Model, spec.Framework, spec.Platform, spec.Nodes, spec.PPN,
		spec.Batch, spec.IntraThreads, spec.InterThreads, spec.Seed)
	b.mu.Lock()
	cached := b.cache[key]
	b.mu.Unlock()
	if cached != nil {
		return cached, nil
	}
	cfg, err := spec.SimConfig()
	if err != nil {
		return nil, err
	}
	cfg.Runs = 1
	res, err := trainsim.Simulate(cfg)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.cache[key] = &res
	b.mu.Unlock()
	return &res, nil
}
