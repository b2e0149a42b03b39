package trainsim

import (
	"fmt"

	"dnnperf/internal/graph"
)

// Memory-footprint model: flags configurations that could not have run on
// the paper's nodes (128-256 GB, Section IV-A). Training memory per rank is
// weights + gradients + optimizer state plus every op's output activation,
// which reverse-mode autodiff keeps alive until its backward runs.

// MemoryEstimate breaks down the per-rank training footprint in bytes.
type MemoryEstimate struct {
	Params      int64 // weights
	Grads       int64 // gradient buffers
	Optimizer   int64 // momentum/velocity state
	Activations int64 // forward activations retained for backward
	Workspace   int64 // im2col and fusion buffers (dominant transient)
}

// Total returns the combined footprint.
func (m MemoryEstimate) Total() int64 {
	return m.Params + m.Grads + m.Optimizer + m.Activations + m.Workspace
}

// EstimateMemory computes the per-rank training footprint of a model at a
// per-process batch size.
func EstimateMemory(model string, batchPerProc int) (MemoryEstimate, error) {
	m, err := cachedModel(model, batchPerProc)
	if err != nil {
		return MemoryEstimate{}, err
	}
	var est MemoryEstimate
	est.Params = 4 * m.Params()
	est.Grads = est.Params
	est.Optimizer = est.Params // one velocity-sized buffer

	var maxOp int64
	for _, n := range m.G.Nodes {
		if n.Kind != graph.KindOp {
			continue
		}
		out := 4 * int64(numElems(n.Shape()))
		est.Activations += out
		if out > maxOp {
			maxOp = out
		}
	}
	// im2col workspace: roughly kernel-area times the largest activation.
	est.Workspace = 9 * maxOp
	return est, nil
}

// CheckMemory reports whether a configuration fits the platform's node
// memory (all ranks of a node share it), returning the estimated per-node
// footprint.
func CheckMemory(cfg Config) (perNodeBytes int64, fits bool, err error) {
	cfg, err = cfg.withDefaults()
	if err != nil {
		return 0, false, err
	}
	est, err := EstimateMemory(cfg.Model, cfg.BatchPerProc)
	if err != nil {
		return 0, false, err
	}
	perNode := est.Total() * int64(cfg.PPN)
	if cfg.CPU.MemGB <= 0 {
		return perNode, true, nil
	}
	return perNode, perNode <= int64(cfg.CPU.MemGB)<<30, nil
}

// NodesFor inverts the throughput model: the smallest node count at which
// the configuration reaches targetIPS, searched up to maxNodes. A capacity
// planning helper built on Simulate.
func NodesFor(cfg Config, targetIPS float64, maxNodes int) (int, error) {
	if targetIPS <= 0 {
		return 0, fmt.Errorf("trainsim: target throughput must be positive")
	}
	if maxNodes < 1 {
		maxNodes = 1024
	}
	lo, hi := 1, maxNodes
	at := func(n int) (float64, error) {
		c := cfg
		c.Nodes = n
		r, err := Simulate(c)
		if err != nil {
			return 0, err
		}
		return r.ImagesPerSec, nil
	}
	top, err := at(hi)
	if err != nil {
		return 0, err
	}
	if top < targetIPS {
		return 0, fmt.Errorf("trainsim: target %.0f img/s unreachable within %d nodes (max %.0f)",
			targetIPS, maxNodes, top)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		ips, err := at(mid)
		if err != nil {
			return 0, err
		}
		if ips >= targetIPS {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}
