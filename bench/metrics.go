package main

import (
	"fmt"
	"math"
	"sort"
)

// def names one metric of the ledger. BENCHMARK.json repeats these tables;
// bench_test.go keeps the two in step.
type def struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd is what a user of the system sees, measured with tracing off.
// Every workload reports every one: an operation is one training step, one
// exchange step, or one scheduled job, and a "step" on sched_des_5k is one
// repetition of the 5000-job simulation.
var endToEnd = []def{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.08},
	{"step_ms_p50", "ms", "lower", 0.12},
	{"step_ms_p90", "ms", "lower", 0.15},
	{"allocs_per_op", "1", "lower", 0.03},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer comes from the traced run. The prefix is the module the number
// belongs to; a workload that does not run a layer reports 0 for it.
var perLayer = []def{
	{Name: "tensor.kernel_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.conv2d_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "graph.fwd_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.bwd_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.dispatch_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "graph.ops_per_step", Unit: "count", Better: "lower"},
	{Name: "data.next_us", Unit: "us", Better: "lower"},
	{Name: "train.step_ms_single", Unit: "ms", Better: "lower"},
	{Name: "train.optimizer_ms", Unit: "ms", Better: "lower"},
	{Name: "train.self_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "train.comm_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "train.comm_exposed_frac", Unit: "1", Better: "lower"},
	{Name: "train.comm_hidden_frac", Unit: "1", Better: "higher"},
	{Name: "train.scaling_eff", Unit: "1", Better: "higher"},
	{Name: "train.step_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "train.allocs_per_step_single", Unit: "1", Better: "lower"},
	{Name: "horovod.exchange_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "horovod.self_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "horovod.us_per_tensor", Unit: "us", Better: "lower"},
	{Name: "horovod.allocs_per_tensor", Unit: "1", Better: "lower"},
	{Name: "horovod.fused_allreduces_per_step", Unit: "1", Better: "lower"},
	{Name: "horovod.cycles_per_step", Unit: "1", Better: "lower"},
	{Name: "horovod.control_bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "horovod.fused_bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "horovod.cached_announce_frac", Unit: "1", Better: "higher"},
	{Name: "horovod.exchange_fresh_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "mpi.allreduce_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "mpi.allreduce_MBps_per_rank", Unit: "MB/s", Better: "higher"},
	{Name: "mpi.pingpong_us_p50", Unit: "us", Better: "lower"},
	{Name: "mpi.frames_per_step", Unit: "1", Better: "lower"},
	{Name: "mpi.wire_bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "mpi.framepool_hit_frac", Unit: "1", Better: "higher"},
	{Name: "mpi.allocs_per_allreduce", Unit: "1", Better: "lower"},
	{Name: "mpi.setup_ms", Unit: "ms", Better: "lower"},
	{Name: "telemetry.tracer_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "job.run_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "job.supervise_overhead_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "job.sched_events", Unit: "count", Better: "lower"},
	{Name: "job.sched_preemptions", Unit: "count", Better: "lower"},
	{Name: "job.sched_makespan_ns", Unit: "ns", Better: "lower"},
	{Name: "job.sched_utilization", Unit: "1", Better: "higher"},
	{Name: "job.sched_us_per_event", Unit: "us", Better: "lower"},
	{Name: "job.sched_allocs_per_event", Unit: "1", Better: "lower"},
	{Name: "job.sched_scaling_exponent", Unit: "1", Better: "lower"},
	{Name: "job.report_json_ms", Unit: "ms", Better: "lower"},
	{Name: "job.report_bytes", Unit: "B", Better: "lower"},
	{Name: "trainsim.estimate_ms_total", Unit: "ms", Better: "lower"},
	{Name: "trainsim.estimate_calls", Unit: "count", Better: "lower"},
	{Name: "trainsim.simulate_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.budget_explained_ms", Unit: "ms", Better: "higher"},
	{Name: "bench.budget_unexplained_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.budget_unexplained_frac", Unit: "1", Better: "lower"},
}

// metric is one measured value. N is the sample count behind a percentile
// (0 for anything else); it is printed beside the value and kept in result
// files, but the driver's result line carries value and unit only.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metrics collects one run's values by name, against one of the tables.
type metrics struct {
	defs []def
	got  map[string]metric
	err  error
}

func newMetrics(defs []def) *metrics {
	return &metrics{defs: defs, got: map[string]metric{}}
}

func (m *metrics) set(name string, v float64) { m.setN(name, v, 0) }

// setN records a value; a name outside the table, a second value for one
// name, or a value that is not finite is the benchmark's own bug and fails
// the run.
func (m *metrics) setN(name string, v float64, n int) {
	unit := ""
	for _, d := range m.defs {
		if d.Name == name {
			unit = d.Unit
		}
	}
	_, dup := m.got[name]
	var err error
	switch {
	case unit == "":
		err = fmt.Errorf("metric %q is not in the table", name)
	case dup:
		err = fmt.Errorf("metric %q set twice", name)
	case math.IsNaN(v) || math.IsInf(v, 0):
		err = fmt.Errorf("metric %q is not finite", name)
	}
	if m.err == nil {
		m.err = err
	}
	m.got[name] = metric{Value: v, Unit: unit, N: n}
}

// pct records the p-th percentile of samples with its sample count.
func (m *metrics) pct(name string, samples []float64, p float64) {
	m.setN(name, percentile(samples, p), len(samples))
}

// finish returns every metric of the table. With pad, a metric the workload
// did not produce is reported as 0 (per-layer tables: the layer is not on
// this workload's path); without, a missing metric is an error.
func (m *metrics) finish(pad bool) (map[string]metric, error) {
	if m.err != nil {
		return nil, m.err
	}
	for _, d := range m.defs {
		if _, ok := m.got[d.Name]; ok {
			continue
		}
		if !pad {
			return nil, fmt.Errorf("metric %q was not measured", d.Name)
		}
		m.got[d.Name] = metric{Unit: d.Unit}
	}
	return m.got, nil
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(samples []float64) float64 { return percentile(samples, 50) }

func sum(samples []float64) float64 {
	var t float64
	for _, v := range samples {
		t += v
	}
	return t
}

func mean(samples []float64) float64 { return sum(samples) / float64(len(samples)) }
