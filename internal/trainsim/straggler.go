package trainsim

import (
	"fmt"
	"time"

	"dnnperf/internal/telemetry"
	"dnnperf/internal/telemetry/detect"
)

// Straggler injection: synthesize the per-rank per-step latency stream a
// live job would push to the detector, with one rank deliberately slowed,
// and confirm the online straggler detector flags exactly that rank. This
// closes the loop on the observability plane — the same detect.Detector
// that watches live telemetry pushes is exercised against a ground truth
// the simulator controls.

// StragglerConfig configures one injection run.
type StragglerConfig struct {
	// Sim is the experiment point whose iteration time seeds the per-rank
	// latencies. Nodes*PPN determines the rank count.
	Sim Config
	// Steps is how many training steps to synthesize (default 20).
	Steps int
	// SlowRank is the rank to slow down (default 0; -1 injects nothing —
	// the control run).
	SlowRank int
	// SlowFactor multiplies the slow rank's step latency (default 2.0).
	SlowFactor float64
	// Telemetry/Tracer, if set, receive the detector's gauges and
	// train.straggler instants.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
}

// StragglerResult reports what the detector saw.
type StragglerResult struct {
	// Ranks and Steps echo the synthesized job shape.
	Ranks int
	Steps int
	// BaseStep is the healthy per-rank step latency.
	BaseStep time.Duration
	// Stragglers are the ranks flagged at the end of the run.
	Stragglers []int
	// FlaggedAtStep is the 1-based step at which SlowRank was first
	// flagged (0 = never). Detection latency in steps.
	FlaggedAtStep int
	// MaxSkew is the final max EWMA/median ratio across ranks.
	MaxSkew float64
}

// SimulateStraggler synthesizes a per-rank step-latency stream from the
// configured simulation point, slows one rank by SlowFactor, feeds every
// sample to a detect.Detector, and reports when (if ever) the injected
// straggler was flagged.
func SimulateStraggler(cfg StragglerConfig) (StragglerResult, error) {
	if cfg.Steps <= 0 {
		cfg.Steps = 20
	}
	if cfg.SlowFactor <= 0 {
		cfg.SlowFactor = 2.0
	}
	base, err := Simulate(cfg.Sim)
	if err != nil {
		return StragglerResult{}, err
	}
	sim, _ := cfg.Sim.withDefaults() // Simulate succeeded, so this does too
	ranks := sim.Nodes * sim.PPN
	if ranks < 2 {
		return StragglerResult{}, fmt.Errorf("trainsim: straggler injection needs >= 2 ranks, got %d", ranks)
	}
	if cfg.SlowRank >= ranks {
		return StragglerResult{}, fmt.Errorf("trainsim: slow rank %d out of range [0,%d)", cfg.SlowRank, ranks)
	}

	det := detect.New(cfg.Telemetry, cfg.Tracer)
	baseNS := base.IterTimeSec * 1e9
	res := StragglerResult{Ranks: ranks, Steps: cfg.Steps, BaseStep: time.Duration(baseNS)}

	for step := 1; step <= cfg.Steps; step++ {
		for r := 0; r < ranks; r++ {
			// Deterministic ±2% per-rank per-step noise on top of the
			// simulated iteration time, so the healthy ranks are not
			// artificially identical.
			lat := baseNS * (1 + 0.02*frac(sim.Seed+int64(step)*104729+int64(r)*7919))
			if r == cfg.SlowRank {
				lat *= cfg.SlowFactor
			}
			det.ObserveStep(r, time.Duration(lat))
		}
		if res.FlaggedAtStep == 0 && cfg.SlowRank >= 0 {
			for _, f := range det.Stragglers() {
				if f == cfg.SlowRank {
					res.FlaggedAtStep = step
				}
			}
		}
	}
	res.Stragglers = det.Stragglers()
	res.MaxSkew = det.Skew()
	return res, nil
}
