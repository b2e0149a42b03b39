// Package trainsim simulates one rank of a data-parallel DNN training job
// on the modeled hardware and predicts steady-state throughput in
// images/second — the quantity every figure of the reproduced paper plots.
//
// The simulator executes the real model graph's forward and backward tasks
// under a processor-sharing model of the rank's cores (inter-op slots,
// intra-op threads, hyper-threading), feeds gradient-readiness events into
// a model of the Horovod background engine (cycle time, tensor fusion), and
// overlaps the resulting hierarchical allreduces with backward compute.
// Because all ranks of a homogeneous job behave identically, simulating one
// rank with job-wide communication costs reproduces the cluster.
package trainsim

import (
	"fmt"
	"math"

	"dnnperf/internal/hw"
	"dnnperf/internal/perf"
)

// Config describes one experiment point.
type Config struct {
	Model     string // models registry name, e.g. "resnet50"
	Framework string // "tensorflow" or "pytorch"
	CPU       hw.CPU
	Net       hw.Network

	Nodes        int // number of nodes (>= 1)
	PPN          int // processes per node (>= 1)
	BatchPerProc int // minibatch per process

	// IntraThreads is -num_intra_threads per rank; 0 selects the paper's
	// tuned setting (one less than the rank's cores when running Horovod,
	// all cores for a pure single process).
	IntraThreads int
	// InterThreads is -num_inter_threads (inter-op pool width); 0 selects
	// the tuned setting (2 with hyper-threading, 1 without). Ignored for
	// frameworks without inter-op capability.
	InterThreads int

	// CycleTimeMS is HOROVOD_CYCLE_TIME in milliseconds (0 = 3.5, the
	// default the paper quotes).
	CycleTimeMS float64
	// FusionMB is HOROVOD_FUSION_THRESHOLD in MiB (0 = 64).
	FusionMB float64

	// Runs is the number of measurement repetitions to average (0 = 3,
	// the paper's protocol). Each run gets deterministic ±1.5% jitter.
	Runs int
	// Seed drives the jitter.
	Seed int64

	// Ablate disables individual mechanisms for what-if studies.
	Ablate Ablations
}

// Ablations switch off individual design mechanisms so their contribution
// to end-to-end throughput can be quantified — the ablation studies
// DESIGN.md calls out for the design choices the paper's insights rest on.
type Ablations struct {
	// NoTensorFusion issues one allreduce per gradient tensor (Horovod's
	// Tensor Fusion disabled).
	NoTensorFusion bool
	// NoOverlap defers all communication until backward finishes (no
	// pipelining of allreduce under compute).
	NoOverlap bool
	// NoMKL forces the generic kernel path even on Intel platforms.
	NoMKL bool
	// NoElemFusion disables graph-level BN/ReLU/Add fusion (full memory
	// traffic for element-wise ops).
	NoElemFusion bool
}

// Result is the simulated outcome of one experiment point.
type Result struct {
	ImagesPerSec   float64
	IterTimeSec    float64
	ComputeSec     float64 // per-iteration compute makespan
	ExposedCommSec float64 // communication time not hidden by compute
	GlobalBatch    int

	// Horovod profiling counters, per iteration.
	FrameworkTensors int // allreduces requested by the framework
	EngineAllreduces int // fused allreduces issued by the engine
	Cycles           int // engine wake-ups with pending work
}

func (c Config) withDefaults() (Config, error) {
	if c.Model == "" || c.CPU.Label == "" {
		return c, fmt.Errorf("trainsim: Model and CPU are required")
	}
	if c.Framework == "" {
		c.Framework = "tensorflow"
	}
	if _, ok := perf.Frameworks()[c.Framework]; !ok {
		return c, fmt.Errorf("trainsim: unknown framework %q", c.Framework)
	}
	if c.Nodes < 1 {
		c.Nodes = 1
	}
	if c.PPN < 1 {
		c.PPN = 1
	}
	if c.BatchPerProc < 1 {
		c.BatchPerProc = 32
	}
	if c.Net.Label == "" {
		c.Net = hw.IBEDR
	}
	if c.CycleTimeMS <= 0 {
		c.CycleTimeMS = 3.5
	}
	if c.FusionMB <= 0 {
		c.FusionMB = 64
	}
	if c.Runs < 1 {
		c.Runs = 3
	}
	fw := perf.Frameworks()[c.Framework]
	rankCores := c.CPU.Cores() / c.PPN
	if rankCores < 1 {
		rankCores = 1
	}
	if c.IntraThreads <= 0 {
		if c.Nodes*c.PPN > 1 && rankCores > 1 {
			// Paper insight: leave one core for the Horovod progress thread.
			c.IntraThreads = rankCores - 1
		} else {
			c.IntraThreads = rankCores
		}
	}
	if c.InterThreads <= 0 {
		c.InterThreads = 1
		if fw.InterOpCapable && c.CPU.ThreadsPerCore > 1 {
			c.InterThreads = 2
		}
	}
	if !fw.InterOpCapable {
		c.InterThreads = 1
	}
	return c, nil
}

// Simulate runs the configured experiment and returns averaged results.
func Simulate(cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	m, err := cachedModel(cfg.Model, cfg.BatchPerProc)
	if err != nil {
		return Result{}, err
	}
	fw := frameworkFor(cfg)
	fusionEff := fw.ElemFusionEff
	if cfg.Ablate.NoElemFusion {
		fusionEff = 1
	}
	tg := buildTasks(m, cfg.BatchPerProc, fusionEff)
	env := newEnv(cfg, fw)

	var sum Result
	for run := 0; run < cfg.Runs; run++ {
		r := simulateOnce(cfg, fw, env, tg, nil)
		jitter := 1 + 0.015*frac(cfg.Seed+int64(run)*7919+int64(len(cfg.Model)))
		r.IterTimeSec *= jitter
		r.ImagesPerSec = float64(r.GlobalBatch) / r.IterTimeSec
		sum.ImagesPerSec += r.ImagesPerSec
		sum.IterTimeSec += r.IterTimeSec
		sum.ComputeSec += r.ComputeSec
		sum.ExposedCommSec += r.ExposedCommSec
		sum.GlobalBatch = r.GlobalBatch
		sum.FrameworkTensors = r.FrameworkTensors
		sum.EngineAllreduces = r.EngineAllreduces
		sum.Cycles = r.Cycles
	}
	n := float64(cfg.Runs)
	sum.ImagesPerSec /= n
	sum.IterTimeSec /= n
	sum.ComputeSec /= n
	sum.ExposedCommSec /= n
	return sum, nil
}

// frameworkFor returns the (possibly ablated) framework profile.
func frameworkFor(cfg Config) perf.Framework {
	fw := perf.Frameworks()[cfg.Framework]
	if cfg.Ablate.NoMKL {
		fw.UsesMKL = false
	}
	return fw
}

// newEnv builds the per-rank execution environment.
func newEnv(cfg Config, fw perf.Framework) perf.ExecEnv {
	return perf.NewExecEnv(cfg.CPU, fw, cfg.PPN, cfg.IntraThreads)
}

// simulateOnceTraced is simulateOnce with event collection.
func simulateOnceTraced(cfg Config, fw perf.Framework, env perf.ExecEnv, tg *taskGraph, tr *tracer) Result {
	return simulateOnce(cfg, fw, env, tg, tr)
}

// frac maps a seed to a deterministic value in [-1, 1).
func frac(seed int64) float64 {
	x := uint64(seed)*6364136223846793005 + 1442695040888963407
	x ^= x >> 33
	return float64(x%20000)/10000 - 1
}

func simulateOnce(cfg Config, fw perf.Framework, env perf.ExecEnv, tg *taskGraph, tr *tracer) Result {
	worldSize := cfg.Nodes * cfg.PPN
	distributed := worldSize > 1
	cycle := cfg.CycleTimeMS * 1e-3
	fusionBytes := int64(cfg.FusionMB * (1 << 20))
	if cfg.Ablate.NoTensorFusion {
		fusionBytes = 1 // every tensor exceeds the budget: no fusion
	}

	// Horovod's background progress thread wakes every cycle, performs the
	// readiness negotiation (a control-plane collective) and goes back to
	// sleep. Its CPU time contends with compute according to where it can
	// land: on a spare physical core (the paper's intra = cores-1 insight),
	// on a spare hyper-thread only, or nowhere.
	var contention float64
	switch {
	case cfg.IntraThreads < env.RankCores:
		contention = 0.05
	case cfg.IntraThreads < env.RankLogical:
		contention = 0.35
	default:
		contention = 0.50
	}
	// Per-cycle awake time: negotiation latency plus engine bookkeeping that
	// grows with job size and pending tensor count.
	negTime := perf.NegotiationTime(cfg.Nodes, cfg.PPN, cfg.Net)
	engineAwake := negTime + fw.EngineWakeFactor*(50e-6+0.5e-6*float64(worldSize)+1.5e-6*float64(tg.gradCount))
	duty := engineAwake / cycle
	if duty > 1 {
		duty = 1
	}
	computeFactor := 1.0
	if distributed {
		computeFactor = 1 - contention*duty
	}

	// Reset per-run task state; dedicated times computed once per task.
	for _, t := range tg.tasks {
		t.deps = t.initDeps
		t.demand = env.EffThreads(t.shape)
		t.dedicated = env.OpTime(t.shape, 1)
		t.remaining = t.dedicated
	}

	var (
		now          float64
		computeEnd   float64
		ready        []*task
		active       []*task
		done         int
		readyGrads   []int64 // gradient payloads awaiting negotiation
		gradsPending = tg.gradCount
		nextTick     = cycle
		commFree     float64
		lastCommEnd  float64
		res          Result
	)
	// In-flight fused allreduces, each releasing count gradient tensors at end.
	// The comm channel is serial (a start is never before the previous end),
	// so ends are nondecreasing and a FIFO is the whole event queue.
	type allreduce struct {
		end   float64
		count int
	}
	var inflight []allreduce
	if !distributed {
		gradsPending = 0 // no allreduce needed
	}
	res.FrameworkTensors = tg.gradCount

	for _, t := range tg.tasks {
		if t.deps == 0 {
			ready = append(ready, t)
		}
	}

	slots := cfg.InterThreads
	const eps = 1e-12

	for done < len(tg.tasks) || gradsPending > 0 {
		// Fill inter-op slots FIFO.
		for len(active) < slots && len(ready) > 0 {
			if tr != nil {
				tr.start(ready[0].id, now)
			}
			active = append(active, ready[0])
			ready = ready[1:]
		}

		// Processor-sharing rate for the active set: convert combined
		// demand through the rank's units curve and hand each task its
		// proportional share relative to what it would get alone.
		totalDemand := 0
		for _, t := range active {
			totalDemand += t.demand
		}
		var rates []float64
		if len(active) > 0 {
			pool := env.UnitsF(float64(totalDemand))
			rates = make([]float64, len(active))
			for i, t := range active {
				alone := env.UnitsF(float64(t.demand))
				r := pool * float64(t.demand) / float64(totalDemand) / alone
				if r > 1 {
					r = 1
				}
				rates[i] = r * computeFactor
			}
		}

		// Next event: op completion, engine tick, or allreduce completion.
		dt := math.Inf(1)
		for i, t := range active {
			if d := t.remaining / rates[i]; d < dt {
				dt = d
			}
		}
		if distributed {
			if d := nextTick - now; d < dt {
				dt = d
			}
		}
		if len(inflight) > 0 {
			if d := inflight[0].end - now; d < dt {
				dt = d
			}
		}
		if math.IsInf(dt, 1) {
			break // nothing schedulable: defensive, should not happen
		}
		if dt < 0 {
			dt = 0
		}
		now += dt

		// Advance active tasks; retire completed ones.
		var still []*task
		for i, t := range active {
			t.remaining -= dt * rates[i]
			if t.remaining <= eps {
				if tr != nil {
					tr.finish(t, i, now)
				}
				done++
				if t.remaining < 0 {
					t.remaining = 0
				}
				for _, cid := range t.consumers {
					c := tg.tasks[cid]
					c.deps--
					if c.deps == 0 {
						ready = append(ready, c)
					}
				}
				if distributed {
					readyGrads = append(readyGrads, t.gradTensors...)
				}
				if done == len(tg.tasks) {
					computeEnd = now
				}
			} else {
				still = append(still, t)
			}
		}
		active = still

		// Retire completed allreduces.
		for len(inflight) > 0 && inflight[0].end <= now+eps {
			gradsPending -= inflight[0].count
			lastCommEnd = inflight[0].end
			inflight = inflight[1:]
		}

		// Engine tick: every cycle the background thread negotiates (one
		// control-plane collective, counted in Cycles) and launches fused
		// data allreduces for whatever gradients are ready. With the
		// NoOverlap ablation, gradients wait until backward completes.
		if distributed && now >= nextTick-eps {
			for now >= nextTick-eps {
				nextTick += cycle
			}
			res.Cycles++
			if len(readyGrads) > 0 && !(cfg.Ablate.NoOverlap && done < len(tg.tasks)) {
				start := math.Max(now+negTime, commFree)
				var batch int64
				var count int
				flush := func() {
					if count == 0 {
						return
					}
					ar := perf.AllreduceTime(batch, cfg.Nodes, cfg.PPN, cfg.Net, cfg.CPU)
					if tr != nil {
						tr.comm(start, start+ar, count)
					}
					start += ar
					inflight = append(inflight, allreduce{end: start, count: count})
					res.EngineAllreduces++
					batch, count = 0, 0
				}
				for _, gb := range readyGrads {
					if count > 0 && batch+gb > fusionBytes {
						flush()
					}
					batch += gb
					count++
				}
				flush()
				commFree = start
				readyGrads = nil
			}
		}
	}

	if computeEnd == 0 {
		computeEnd = now
	}
	iterEnd := math.Max(computeEnd, lastCommEnd)
	opt := env.OptimizerTime(tg.paramBytes)
	iter := iterEnd + opt + fw.IterOverheadMS*1e-3
	// Synchronous data parallelism runs at the pace of the slowest rank:
	// with per-rank iteration noise of coefficient sigma, the expected
	// maximum over p i.i.d. ranks stretches the step by ~sigma*sqrt(2 ln p)
	// (Gumbel approximation). This is the straggler tax that bends the
	// paper's 128-node speedups below perfectly linear.
	if distributed {
		const sigma = 0.012
		iter *= 1 + sigma*math.Sqrt(2*math.Log(float64(worldSize)))
	}

	res.IterTimeSec = iter
	res.ComputeSec = computeEnd
	res.ExposedCommSec = math.Max(0, lastCommEnd-computeEnd)
	res.GlobalBatch = cfg.BatchPerProc * cfg.PPN * cfg.Nodes
	res.ImagesPerSec = float64(res.GlobalBatch) / iter
	return res
}
