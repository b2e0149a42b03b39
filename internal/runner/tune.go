package runner

import (
	"fmt"

	"dnnperf/internal/hw"
	"dnnperf/internal/models"
	"dnnperf/internal/trainsim"
)

// TunedConfig is the outcome of a configuration search.
type TunedConfig struct {
	Config       trainsim.Config
	ImagesPerSec float64
	// Searched is the number of configurations evaluated.
	Searched int
}

// batchTolerance is the near-best window of the ppn selection rule: among
// configurations within this fraction of the maximum throughput, the
// smallest ppn wins. This encodes the paper's own methodology — e.g. on
// Skylake-1 "the difference between 2ppn and 4ppn is minimal[;] therefore,
// doubling the batch size by using 4ppn makes little sense", because higher
// ppn at a fixed per-process batch inflates the global batch and hurts
// convergence.
const batchTolerance = 0.08

// BestConfig searches processes-per-node, intra-op threads, and inter-op
// width for the best configuration of model on the platform with the given
// node count and per-process batch — the paper's "how to achieve the best
// possible performance for a given HPC platform" contribution, automated.
// Following the paper, the per-process batch is held constant across
// candidates and the smallest ppn within batchTolerance of the maximum
// throughput is selected.
func BestConfig(model, framework string, p hw.Platform, nodes, batchPerProc int) (TunedConfig, error) {
	if _, err := models.Get(model); err != nil {
		return TunedConfig{}, err
	}
	if nodes < 1 {
		nodes = 1
	}
	if batchPerProc < 1 {
		batchPerProc = 32
	}
	cores := p.CPU.Cores()

	type candidate struct {
		cfg trainsim.Config
		ips float64
	}
	var cands []candidate
	searched := 0
	for _, ppn := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		if ppn > cores {
			break
		}
		rankCores := cores / ppn
		intraCandidates := []int{rankCores}
		if rankCores > 1 {
			intraCandidates = append(intraCandidates, rankCores-1)
		}
		interCandidates := []int{1}
		if p.CPU.ThreadsPerCore > 1 {
			interCandidates = append(interCandidates, 2)
		}
		bestHere := candidate{}
		for _, intra := range intraCandidates {
			for _, inter := range interCandidates {
				cfg := trainsim.Config{
					Model: model, Framework: framework, CPU: p.CPU, Net: p.Net,
					Nodes: nodes, PPN: ppn, BatchPerProc: batchPerProc,
					IntraThreads: intra, InterThreads: inter,
				}
				if _, fits, merr := trainsim.CheckMemory(cfg); merr == nil && !fits {
					continue // configuration could not run on this node's RAM
				}
				r, err := trainsim.Simulate(cfg)
				if err != nil {
					return TunedConfig{}, err
				}
				searched++
				if r.ImagesPerSec > bestHere.ips {
					bestHere = candidate{cfg: cfg, ips: r.ImagesPerSec}
				}
			}
		}
		cands = append(cands, bestHere)
	}
	if len(cands) == 0 {
		return TunedConfig{}, fmt.Errorf("runner: no feasible configuration for %s on %s", model, p.CPU.Label)
	}
	var max float64
	for _, c := range cands {
		if c.ips > max {
			max = c.ips
		}
	}
	for _, c := range cands { // ppn ascending: first within tolerance wins
		if c.ips >= (1-batchTolerance)*max {
			return TunedConfig{Config: c.cfg, ImagesPerSec: c.ips, Searched: searched}, nil
		}
	}
	return TunedConfig{}, fmt.Errorf("runner: selection failed for %s on %s", model, p.CPU.Label)
}

// Insight is one row of the Section IX summary.
type Insight struct {
	Name     string
	Paper    float64
	Measured float64
}

// KeyInsights computes the paper's headline ratios from the simulator.
func KeyInsights() ([]Insight, error) {
	e, err := Get("insights")
	if err != nil {
		return nil, err
	}
	t, err := e.Run()
	if err != nil {
		return nil, err
	}
	out := make([]Insight, 0, len(t.Rows))
	for _, r := range t.Rows {
		out = append(out, Insight{Name: r.Name, Paper: r.Values[0], Measured: r.Values[1]})
	}
	return out, nil
}
