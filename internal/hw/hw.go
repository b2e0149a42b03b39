// Package hw is the hardware catalog of the reproduced paper: the five CPU
// platforms of Table I, the three NVIDIA GPUs of the GPU-CPU comparison, and
// the cluster interconnects. The catalog carries both the published
// specifications (clock, cores, sockets, threads/core) and the calibrated
// performance constants the cost model needs (sustained per-core FLOP rates
// on the MKL and generic code paths, memory bandwidth).
//
// Calibration note: FlopsPerCycleMKL is the *sustained effective* fp32
// FLOP/cycle/core of MKL-DNN convolution kernels, not the architectural
// peak (AVX-512 peaks at 64 fp32 FLOP/cycle; real conv kernels sustain a
// quarter or less of that). These constants anchor absolute throughput;
// every relative effect in the paper's figures emerges from the mechanisms
// in internal/perf.
package hw

import "fmt"

// CPU describes one CPU platform.
type CPU struct {
	Label          string  // paper's label, e.g. "Skylake-3"
	Model          string  // marketing name
	Cluster        string  // cluster the paper measured it on
	ClockGHz       float64 // base clock
	Sockets        int
	CoresPerSocket int
	ThreadsPerCore int // hardware threads per core (2 = hyper-threading)

	// MemGB is the node's main-memory capacity (from the paper's cluster
	// descriptions), used to flag configurations that could not run.
	MemGB int

	// Calibrated performance constants.
	FlopsPerCycleMKL     float64 // sustained fp32 FLOP/cycle/core, MKL path
	FlopsPerCycleGeneric float64 // sustained fp32 FLOP/cycle/core, generic path
	MemBWGBs             float64 // node memory bandwidth, GB/s
	HasMKL               bool    // Intel-optimized builds effective here
}

// Cores returns the node's physical core count.
func (c CPU) Cores() int { return c.Sockets * c.CoresPerSocket }

// LogicalCPUs returns the node's hardware thread count.
func (c CPU) LogicalCPUs() int { return c.Cores() * c.ThreadsPerCore }

// PeakGFLOPs returns the node's sustained-peak GFLOP/s on the given path.
func (c CPU) PeakGFLOPs(mkl bool) float64 {
	return float64(c.Cores()) * c.ClockGHz * c.FlopsPerCycle(mkl)
}

// FlopsPerCycle returns the per-core sustained FLOP/cycle for a code path.
// Requesting the MKL path on a non-MKL platform falls back to generic —
// the paper's observation that Intel optimizations do not help AMD EPYC.
func (c CPU) FlopsPerCycle(mkl bool) float64 {
	if mkl && c.HasMKL {
		return c.FlopsPerCycleMKL
	}
	return c.FlopsPerCycleGeneric
}

// GPU describes one accelerator for the GPU-CPU comparison experiments.
type GPU struct {
	Label          string
	PeakFP32TFLOPs float64
	MemBWGBs       float64
	// KernelLaunchUS is the per-kernel launch/dispatch latency.
	KernelLaunchUS float64
	// MaxUtil is the fraction of peak that well-shaped kernels sustain.
	MaxUtil float64
	// HalfSatBatch is the per-GPU batch size at which utilization reaches
	// half of MaxUtil (small batches underutilize wide GPUs).
	HalfSatBatch float64
}

// Util returns the sustained fraction of peak at a per-GPU batch size.
func (g GPU) Util(batch int) float64 {
	b := float64(batch)
	return g.MaxUtil * b / (b + g.HalfSatBatch)
}

// EffGFLOPs returns sustained GFLOP/s at a batch size.
func (g GPU) EffGFLOPs(batch int) float64 { return g.PeakFP32TFLOPs * 1000 * g.Util(batch) }

// Network describes a cluster interconnect.
type Network struct {
	Label        string
	LatencyUS    float64 // per-hop small-message latency
	BandwidthGBs float64 // per-NIC unidirectional bandwidth
}

// Platform binds a CPU to its cluster's interconnect and GPUs.
type Platform struct {
	CPU  CPU
	Net  Network
	GPUs []GPU
}

// Interconnects from the paper's cluster descriptions.
var (
	// IBEDR is Mellanox InfiniBand EDR (100 Gb/s), used on RI2, Pitzer and
	// the AMD cluster.
	IBEDR = Network{Label: "IB-EDR", LatencyUS: 1.5, BandwidthGBs: 12.0}
	// OmniPath is the Intel Omni-Path fabric on Stampede2 (100 Gb/s).
	OmniPath = Network{Label: "Omni-Path", LatencyUS: 1.8, BandwidthGBs: 11.5}
)

// The five CPU rows of Table I.
var (
	// Skylake1 is RI2's Xeon Gold 6132: 2x14 cores at 2.6 GHz, no HT.
	Skylake1 = CPU{
		Label: "Skylake-1", Model: "Xeon Gold 6132", Cluster: "RI2",
		ClockGHz: 2.6, Sockets: 2, CoresPerSocket: 14, ThreadsPerCore: 1, MemGB: 192,
		FlopsPerCycleMKL: 36, FlopsPerCycleGeneric: 3.0, MemBWGBs: 200, HasMKL: true,
	}
	// Skylake2 is Pitzer's Xeon Gold 6148: 2x20 cores at 2.4 GHz, no HT.
	Skylake2 = CPU{
		Label: "Skylake-2", Model: "Xeon Gold 6148", Cluster: "Pitzer",
		ClockGHz: 2.4, Sockets: 2, CoresPerSocket: 20, ThreadsPerCore: 1, MemGB: 192,
		FlopsPerCycleMKL: 36, FlopsPerCycleGeneric: 3.0, MemBWGBs: 230, HasMKL: true,
	}
	// Skylake3 is Stampede2's Xeon Platinum 8160: 2x24 cores at 2.1 GHz
	// with hyper-threading (2 threads/core).
	Skylake3 = CPU{
		Label: "Skylake-3", Model: "Xeon Platinum 8160", Cluster: "Stampede2",
		ClockGHz: 2.1, Sockets: 2, CoresPerSocket: 24, ThreadsPerCore: 2, MemGB: 192,
		FlopsPerCycleMKL: 36, FlopsPerCycleGeneric: 3.0, MemBWGBs: 220, HasMKL: true,
	}
	// Broadwell is RI2's Xeon E5-2680 v4: 2x14 cores at 2.4 GHz (AVX2, so a
	// lower sustained MKL rate than the AVX-512 Skylakes).
	Broadwell = CPU{
		Label: "Broadwell", Model: "Xeon E5-2680 v4", Cluster: "RI2",
		ClockGHz: 2.4, Sockets: 2, CoresPerSocket: 14, ThreadsPerCore: 1, MemGB: 128,
		FlopsPerCycleMKL: 18, FlopsPerCycleGeneric: 2.6, MemBWGBs: 150, HasMKL: true,
	}
	// EPYC is the AMD cluster's EPYC 7551 (Table I lists the per-socket 32
	// cores; the nodes are dual-socket per the text). Intel MKL
	// optimizations do not engage here, so both TensorFlow and PyTorch run
	// the generic path — the paper's "no benefit of Intel-optimized builds
	// on AMD" observation.
	EPYC = CPU{
		Label: "EPYC", Model: "EPYC 7551", Cluster: "AMD-Cluster",
		ClockGHz: 2.0, Sockets: 2, CoresPerSocket: 32, ThreadsPerCore: 2, MemGB: 256,
		FlopsPerCycleMKL: 7.4, FlopsPerCycleGeneric: 7.4, MemBWGBs: 280, HasMKL: false,
	}
)

// The three GPUs of the comparison experiments.
var (
	// K80 is one GK210 die of the dual-die Kepler K80 board (the paper's
	// per-GPU numbers are per die).
	K80 = GPU{Label: "K80", PeakFP32TFLOPs: 4.1, MemBWGBs: 240,
		KernelLaunchUS: 12, MaxUtil: 0.46, HalfSatBatch: 16}
	// P100 is the Pascal P100 (16 GB).
	P100 = GPU{Label: "P100", PeakFP32TFLOPs: 10.6, MemBWGBs: 720,
		KernelLaunchUS: 8, MaxUtil: 0.60, HalfSatBatch: 14}
	// V100 is the Volta V100 (16 GB) on Pitzer.
	V100 = GPU{Label: "V100", PeakFP32TFLOPs: 15.7, MemBWGBs: 900,
		KernelLaunchUS: 6, MaxUtil: 0.75, HalfSatBatch: 16}
)

// Platforms in Table I order.
var (
	PlatformSkylake1  = Platform{CPU: Skylake1, Net: IBEDR, GPUs: []GPU{K80}}
	PlatformSkylake2  = Platform{CPU: Skylake2, Net: IBEDR, GPUs: []GPU{V100}}
	PlatformSkylake3  = Platform{CPU: Skylake3, Net: OmniPath}
	PlatformBroadwell = Platform{CPU: Broadwell, Net: IBEDR}
	PlatformEPYC      = Platform{CPU: EPYC, Net: IBEDR}
)

// Table1 returns the platform rows in the paper's order.
func Table1() []CPU {
	return []CPU{Skylake1, Skylake2, Skylake3, Broadwell, EPYC}
}

// ByLabel looks up a CPU by its paper label (case-sensitive).
func ByLabel(label string) (CPU, error) {
	for _, c := range Table1() {
		if c.Label == label {
			return c, nil
		}
	}
	return CPU{}, fmt.Errorf("hw: unknown CPU label %q", label)
}

// PlatformFor returns the Platform for a CPU label.
func PlatformFor(label string) (Platform, error) {
	switch label {
	case "Skylake-1":
		return PlatformSkylake1, nil
	case "Skylake-2":
		return PlatformSkylake2, nil
	case "Skylake-3":
		return PlatformSkylake3, nil
	case "Broadwell":
		return PlatformBroadwell, nil
	case "EPYC":
		return PlatformEPYC, nil
	}
	return Platform{}, fmt.Errorf("hw: unknown platform %q", label)
}
