// Package dnnperf reproduces "Performance Characterization of DNN Training
// using TensorFlow and PyTorch on Modern Clusters" (Jain, Awan, Anthony,
// Subramoni, Panda — IEEE CLUSTER 2019) as a self-contained Go library.
//
// The library has two coupled layers:
//
//   - A functional layer that really trains DNNs: a dense tensor library
//     with parallel kernels (internal/tensor), a dataflow graph engine with
//     reverse-mode autodiff and TensorFlow-style intra-op/inter-op thread
//     pools (internal/graph), the ResNet-50/101/152 and Inception-v3/v4
//     model zoo (internal/models), an MPI-style runtime with in-process and
//     TCP transports (internal/mpi), and a Horovod-style gradient engine
//     with tensor fusion and cycle-time semantics (internal/horovod).
//
//   - A timing layer that predicts cluster-scale throughput: a hardware
//     catalog encoding the paper's Table I platforms plus K80/P100/V100
//     GPUs (internal/hw), a mechanistic cost model (internal/perf), and a
//     discrete-event training simulator (internal/trainsim).
//
// This package is the public facade: it re-exports the experiment harness
// that regenerates every table and figure of the paper, the simulator
// configuration types, and the automated platform-tuning search.
//
// Quick start:
//
//	res, err := dnnperf.Simulate(dnnperf.SimConfig{
//		Model: "resnet152", CPU: dnnperf.Skylake3, Net: dnnperf.OmniPath,
//		Nodes: 128, PPN: 4, BatchPerProc: 32,
//	})
//	fmt.Printf("%.0f images/sec\n", res.ImagesPerSec)
//
// Or regenerate a published figure:
//
//	tbl, err := dnnperf.RunExperiment("fig17")
//	tbl.Render(os.Stdout)
package dnnperf

import (
	"fmt"
	"io"

	"dnnperf/internal/hw"
	"dnnperf/internal/models"
	"dnnperf/internal/runner"
	"dnnperf/internal/telemetry"
	"dnnperf/internal/trainsim"
)

// Metrics is the shared telemetry registry: the same Counter/Gauge/Histogram
// substrate every layer (mpi, horovod, graph, train, trainsim, runner) emits
// through. Pass one to the *On experiment runners or RecordSimMetrics, then
// export it with WriteMetrics.
type Metrics = telemetry.Registry

// NewMetrics returns an empty telemetry registry.
func NewMetrics() *Metrics { return telemetry.New() }

// WriteMetrics writes the registry's state as the merged metrics JSON
// document — the same schema mpirun writes for multi-rank jobs, with a
// single snapshot under rank 0.
func WriteMetrics(w io.Writer, m *Metrics) error {
	return telemetry.WriteMetrics(w, []telemetry.Snapshot{m.Snapshot()})
}

// SimConfig configures one CPU training-throughput simulation point.
type SimConfig = trainsim.Config

// SimResult is the outcome of a simulation point.
type SimResult = trainsim.Result

// GPUSimConfig configures one GPU comparison point (Figures 15-16).
type GPUSimConfig = trainsim.GPUConfig

// CPU describes a CPU platform (see the exported catalog below).
type CPU = hw.CPU

// GPU describes a GPU model.
type GPU = hw.GPU

// Network describes a cluster interconnect.
type Network = hw.Network

// Platform binds a CPU to its interconnect.
type Platform = hw.Platform

// ResultTable is a rendered experiment result in the shape of the paper's
// figure (rows = series, columns = x ticks).
type ResultTable = runner.Table

// Experiment is one reproducible table or figure.
type Experiment = runner.Experiment

// TunedConfig is the outcome of a configuration search.
type TunedConfig = runner.TunedConfig

// Insight is one Section IX headline ratio (paper vs measured).
type Insight = runner.Insight

// The hardware catalog (Table I platforms, comparison GPUs, interconnects).
var (
	Skylake1  = hw.Skylake1
	Skylake2  = hw.Skylake2
	Skylake3  = hw.Skylake3
	Broadwell = hw.Broadwell
	EPYC      = hw.EPYC

	K80  = hw.K80
	P100 = hw.P100
	V100 = hw.V100

	IBEDR    = hw.IBEDR
	OmniPath = hw.OmniPath
)

// Simulate predicts training throughput for one CPU configuration.
func Simulate(cfg SimConfig) (SimResult, error) { return trainsim.Simulate(cfg) }

// SimulateGPU predicts training throughput for one GPU configuration.
func SimulateGPU(cfg GPUSimConfig) (SimResult, error) { return trainsim.SimulateGPU(cfg) }

// TraceEvent is one interval of a simulated iteration timeline.
type TraceEvent = trainsim.TraceEvent

// SimulateTrace runs one simulation collecting the iteration timeline.
func SimulateTrace(cfg SimConfig) (SimResult, []TraceEvent, error) {
	return trainsim.SimulateTrace(cfg)
}

// WriteChromeTrace renders a timeline in the Chrome trace-event format,
// labeled as the simulated process (telemetry.SimPID) so it stays distinct
// from real ranks when overlaid with an mpirun trace in one Perfetto view.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	te := trainsim.ToTelemetry(events, telemetry.SimPID)
	te = append([]telemetry.TraceEvent{telemetry.ProcessName(telemetry.SimPID, "simulated")}, te...)
	return telemetry.WriteChromeTrace(w, te)
}

// StragglerConfig configures a straggler-injection run: synthesize the
// per-rank step-latency stream of a simulated job with one rank slowed,
// and confirm the online straggler detector flags it.
type StragglerConfig = trainsim.StragglerConfig

// StragglerResult reports what the detector saw during an injection run.
type StragglerResult = trainsim.StragglerResult

// SimulateStraggler runs a straggler-injection experiment against the live
// detector (internal/telemetry/detect) and reports the detection latency.
func SimulateStraggler(cfg StragglerConfig) (StragglerResult, error) {
	return trainsim.SimulateStraggler(cfg)
}

// PipelineConfig configures a model-parallel (pipeline) simulation point.
type PipelineConfig = trainsim.PipelineConfig

// PipelineResult is the outcome of a pipeline simulation.
type PipelineResult = trainsim.PipelineResult

// SimulatePipeline predicts model-parallel training throughput (the
// paper's Section II-B strategy).
func SimulatePipeline(cfg PipelineConfig) (PipelineResult, error) {
	return trainsim.SimulatePipeline(cfg)
}

// MemoryEstimate breaks down a per-rank training memory footprint.
type MemoryEstimate = trainsim.MemoryEstimate

// EstimateMemory computes the per-rank training footprint of a model.
func EstimateMemory(model string, batchPerProc int) (MemoryEstimate, error) {
	return trainsim.EstimateMemory(model, batchPerProc)
}

// CheckMemory reports whether a configuration fits the platform's node RAM.
func CheckMemory(cfg SimConfig) (perNodeBytes int64, fits bool, err error) {
	return trainsim.CheckMemory(cfg)
}

// NodesFor returns the smallest node count reaching targetIPS.
func NodesFor(cfg SimConfig, targetIPS float64, maxNodes int) (int, error) {
	return trainsim.NodesFor(cfg, targetIPS, maxNodes)
}

// RunExperiment regenerates one table or figure by ID (e.g. "fig6a").
func RunExperiment(id string) (*ResultTable, error) { return RunExperimentOn(nil, id) }

// RunExperimentOn is RunExperiment with harness telemetry (runner.* wall
// times) recorded into m; nil m leaves the run unobserved.
func RunExperimentOn(m *Metrics, id string) (*ResultTable, error) {
	e, err := runner.Get(id)
	if err != nil {
		return nil, err
	}
	return runner.RunOn(e, m)
}

// ExperimentIDs lists every reproducible artifact in paper order.
func ExperimentIDs() []string { return runner.IDs() }

// Experiments returns the full experiment registry in paper order.
func Experiments() []Experiment { return runner.All() }

// RunAll regenerates the full suite, rendering every table to w.
func RunAll(w io.Writer) error { return RunAllOn(nil, w) }

// RunAllOn is RunAll with per-experiment telemetry recorded into m.
func RunAllOn(m *Metrics, w io.Writer) error {
	for _, e := range runner.All() {
		t, err := runner.RunOn(e, m)
		if err != nil {
			return fmt.Errorf("dnnperf: %s: %w", e.ID, err)
		}
		t.Render(w)
		fmt.Fprintln(w)
	}
	return nil
}

// WriteReport regenerates the full suite as a markdown report.
func WriteReport(w io.Writer) error { return WriteReportOn(nil, w) }

// WriteReportOn is WriteReport with per-experiment telemetry recorded into m.
func WriteReportOn(m *Metrics, w io.Writer) error {
	fmt.Fprintln(w, "# dnnperf reproduction report")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Regenerated tables for every artifact of \"Performance Characterization")
	fmt.Fprintln(w, "of DNN Training using TensorFlow and PyTorch on Modern Clusters\"")
	fmt.Fprintln(w, "(CLUSTER 2019), plus this reproduction's extension studies.")
	fmt.Fprintln(w)
	for _, e := range runner.All() {
		t, err := runner.RunOn(e, m)
		if err != nil {
			return fmt.Errorf("dnnperf: %s: %w", e.ID, err)
		}
		t.RenderMarkdown(w)
	}
	return nil
}

// RecordSimMetrics exports one simulation result's headline numbers into m
// on the shared metric names (sim.*), so simulated and measured runs can be
// compared from the same metrics pipeline.
func RecordSimMetrics(m *Metrics, r SimResult) {
	if m == nil {
		return
	}
	m.Counter("sim.runs").Inc()
	m.Counter("sim.framework_tensors").Add(int64(r.FrameworkTensors))
	m.Counter("sim.engine_allreduces").Add(int64(r.EngineAllreduces))
	m.Counter("sim.cycles").Add(int64(r.Cycles))
	m.Gauge("sim.images_per_sec").Set(r.ImagesPerSec)
	m.Gauge("sim.global_batch").SetInt(int64(r.GlobalBatch))
	m.Gauge("sim.iter_time_ms").Set(1e3 * r.IterTimeSec)
	m.Gauge("sim.compute_ms").Set(1e3 * r.ComputeSec)
	m.Gauge("sim.exposed_comm_ms").Set(1e3 * r.ExposedCommSec)
}

// BestConfig searches ppn/threads for the best configuration of a model on
// a platform — the paper's tuning methodology, automated.
func BestConfig(model, framework string, p Platform, nodes, batchPerProc int) (TunedConfig, error) {
	return runner.BestConfig(model, framework, p, nodes, batchPerProc)
}

// KeyInsights computes the paper's Section IX headline ratios.
func KeyInsights() ([]Insight, error) { return runner.KeyInsights() }

// ModelNames lists the available DNN architectures.
func ModelNames() []string { return models.Names() }

// ModelStats summarizes one architecture.
type ModelStats struct {
	Display        string
	ParamsM        float64 // parameters, millions
	GFLOPsPerImage float64 // forward GFLOPs per image at native resolution
	Ops            int     // op-node count
}

// ModelInfo returns the summary statistics of a registered model.
func ModelInfo(name string) (ModelStats, error) {
	b, err := models.Get(name)
	if err != nil {
		return ModelStats{}, err
	}
	m := b(models.Config{Batch: 1})
	return ModelStats{
		Display:        models.DisplayName(name),
		ParamsM:        float64(m.Params()) / 1e6,
		GFLOPsPerImage: float64(m.FwdFLOPs()) / 1e9,
		Ops:            m.OpCount(),
	}, nil
}

// WriteModelDOT renders a model's computation graph in Graphviz DOT format.
func WriteModelDOT(w io.Writer, name string) error {
	b, err := models.Get(name)
	if err != nil {
		return err
	}
	m := b(models.Config{Batch: 1})
	return m.G.WriteDOT(w, name)
}

// PaperModels lists the five models of the paper's evaluation in order.
func PaperModels() []string { return append([]string(nil), models.PaperModels...) }

// PlatformFor returns the modeled platform for a Table I label
// ("Skylake-1", "Skylake-2", "Skylake-3", "Broadwell", "EPYC").
func PlatformFor(label string) (Platform, error) { return hw.PlatformFor(label) }
