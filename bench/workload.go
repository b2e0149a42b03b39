package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Every step workload is a closed loop of 2 ranks at batch 4, one intra-op
// and one inter-op thread per rank: each rank issues its next step only
// after the previous one completed. 2 = nproc of the reference box; at 4
// ranks on 2 vCPUs the numbers measure the Go scheduler (see README).
const (
	ranks = 2
	batch = 4
)

// sizes are the per-workload constants. They are frozen: results of two
// commits compare only when these agree, so every result file records them.
type sizes struct {
	SetupReps     int // set-ups per run; setup_s is their median
	WarmTrain     int // train_dp2_inproc warm-up steps
	WarmWideFC    int // train_dp2_tcp_widefc warm-up steps
	HiddenWideFC  int // width of widefc's two hidden layers
	WarmExchange  int // exchange_small_inproc warm-up steps
	TensorsPerExc int // tensors per exchange step
	SchedJobs     int // synthetic jobs per sched_des_5k repetition
	ProbeSteps    int // steps per traced-run probe loop on the TinyCNN workload
	ProbeStepsFC  int // the same on widefc, whose steps are 5x longer
	ProbeStepsExc int // steps per traced-run probe loop of the small-tensor exchange
}

var fullSizes = sizes{
	SetupReps:     3,
	WarmTrain:     100,
	WarmWideFC:    10,
	HiddenWideFC:  2048,
	WarmExchange:  500,
	TensorsPerExc: 512,
	SchedJobs:     5000,
	ProbeSteps:    150,
	ProbeStepsFC:  30,
	ProbeStepsExc: 400,
}

// config is one run of one workload.
type config struct {
	seed    int64
	seconds float64 // length of the measured phase
	trace   bool    // traced run: per-layer metrics instead of end-to-end
	sz      sizes
	// preamble is process start to the workload's first set-up; it is added
	// to setup_s so that set-up time counts from process start.
	preamble time.Duration
	outDir   string // where trace-<workload>.json goes
}

// result is what one run of one workload reports.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Exact holds simulated statistics and hashes that must repeat exactly
	// for one seed and one set of sizes.
	Exact map[string]string `json:"exact,omitempty"`
	// Notes names each output check that failed.
	Notes []string     `json:"notes,omitempty"`
	Spans []spanTotals `json:"spans,omitempty"`
}

// newResult applies the output checks: one failed check counts every
// operation of the workload as failed.
func newResult(name string, ops int, checks ...error) *result {
	r := &result{Workload: name, Correct: true, Attempted: ops}
	for _, err := range checks {
		if err != nil {
			r.Correct = false
			r.Failed = ops
			r.Notes = append(r.Notes, err.Error())
		}
	}
	return r
}

type workload struct {
	name string
	why  string
	run  func(config) (*result, error)
}

// workloads in the order they run. Names are fixed; later issues cite them.
var workloads = []workload{
	{"train_dp2_inproc", "whole launch path (job, supervisor, train, graph, tensor) on TinyCNN: compute-bound, comm under 10%", runTrainInproc},
	{"train_dp2_tcp_widefc", "23 MB of gradients per step over real sockets: bandwidth-bound fusion copy, ring allreduce and framing", runTrainWideFC},
	{"exchange_small_inproc", "512 small tensors per step and no compute: latency-bound negotiation and request bookkeeping", runExchange},
	{"sched_des_5k", "5000-job discrete-event schedule: scheduler and simulator only, must stay flat under tensor or comm changes", runSched},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// measured is the end-to-end view of one untraced run.
type measured struct {
	setup   []float64 // seconds, one per set-up
	ops     int       // operations in the measured phase
	rate    float64   // operations per second
	step    []float64 // ms per step (per repetition on sched_des_5k)
	mallocs uint64    // process-wide runtime.MemStats.Mallocs delta over the measured phase
}

func (m *measured) metrics(c config) (map[string]metric, error) {
	e := newMetrics(endToEnd)
	e.setN("setup_s", c.preamble.Seconds()+median(m.setup), len(m.setup))
	e.set("ops_per_s", m.rate)
	e.pct("step_ms_p50", m.step, 50)
	e.pct("step_ms_p90", m.step, 90)
	e.set("allocs_per_op", float64(m.mallocs)/float64(m.ops))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	e.set("peak_rss_mb", rss)
	return e.finish(false)
}

// peakRSSMB is the process's VmHWM so far.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// pctWorse is how much slower b ran than a, as a percentage of a.
func pctWorse(aRate, bRate float64) float64 { return (aRate - bRate) / aRate * 100 }
