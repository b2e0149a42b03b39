package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"dnnperf/internal/job"
)

// smokeSizes is every workload at about 1/50 scale: the same code paths in
// well under ten seconds for all eight runs.
var smokeSizes = sizes{
	SetupReps:     1,
	WarmTrain:     12,
	WarmWideFC:    40,
	HiddenWideFC:  64,
	WarmExchange:  10,
	TensorsPerExc: 24,
	SchedJobs:     100,
	ProbeSteps:    5,
	ProbeStepsFC:  3,
	ProbeStepsExc: 20,
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
var isPercentile = regexp.MustCompile(`_p[0-9]+$`)

// TestWorkloadsEmitEveryMetric runs all four workloads, untraced and traced,
// and holds each run to the contract: exactly the metrics of its table, once
// each, finite, with the table's unit, percentiles with their sample count,
// every output check passing, and a trace file from the traced run.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			dir := t.TempDir()
			res, err := w.run(config{seed: 3, seconds: 0.4, trace: trace, sz: smokeSizes, outDir: dir})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v", w.name, trace, res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			table := endToEnd
			if trace {
				table = perLayer
				if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s trace=%v: %d metrics, table has %d", w.name, trace, len(res.Metrics), len(table))
			}
			for _, d := range table {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", w.name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, want %q", w.name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v", w.name, d.Name, m.Value)
				case !trace && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.name, d.Name)
				case isPercentile.MatchString(d.Name) && m.Value != 0 && m.N == 0:
					t.Errorf("%s: percentile %s has no sample count", w.name, d.Name)
				}
			}
		}
	}
}

// TestMetricsRejectsMisuse covers the guard that keeps a workload from
// emitting a metric twice, outside its table, or not finite.
func TestMetricsRejectsMisuse(t *testing.T) {
	for name, use := range map[string]func(*metrics){
		"twice":      func(m *metrics) { m.set("ops_per_s", 1); m.set("ops_per_s", 2) },
		"unknown":    func(m *metrics) { m.set("no_such_metric", 1) },
		"not finite": func(m *metrics) { m.set("ops_per_s", math.NaN()) },
		"missing":    func(m *metrics) { m.set("ops_per_s", 1) },
	} {
		m := newMetrics(endToEnd)
		use(m)
		if _, err := m.finish(false); err == nil {
			t.Errorf("%s: finish accepted it", name)
		}
	}
}

// TestManifestMatchesTables keeps BENCHMARK.json and the tables in
// metrics.go and workload.go saying the same thing.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var manifest struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if strings.Join(manifest.Command, " ") != "bash bench/run.sh" || len(manifest.Paths) != 1 || manifest.Paths[0] != "bench" || manifest.RunSeconds != runSeconds {
		t.Errorf("command %v, paths %v, run_seconds %d", manifest.Command, manifest.Paths, manifest.RunSeconds)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := manifest.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: manifest has %q (%q)", i, got.Name, got.Why)
		}
	}
	same := func(kind string, got []entry, want []def) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in the table", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s %d: manifest %+v, table %+v", kind, i, g, d)
			}
			if !metricName.MatchString(d.Name) || len(d.Name) > 64 || seen[d.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, d.Name)
			}
			seen[d.Name] = true
		}
	}
	same("end_to_end", manifest.EndToEnd, endToEnd)
	same("per_layer", manifest.PerLayer, perLayer)
}

// TestOutputChecksFail feeds each output check a corrupted result.
func TestOutputChecksFail(t *testing.T) {
	if checkReduced(0) != nil || checkReduced(1) == nil {
		t.Error("checkReduced: a wrong reduced value must fail, none must pass")
	}
	if checkHashes([]uint64{7, 7}) != nil || checkHashes([]uint64{7, 8}) == nil {
		t.Error("checkHashes: mismatched weight hashes must fail, equal ones pass")
	}
	falling := []float64{0.4, 0.3, 0.2}
	if err := checkLoss([]float64{2, 2}, falling); err != nil {
		t.Errorf("checkLoss rejected a falling loss: %v", err)
	}
	for name, measured := range map[string][]float64{
		"flat":       {2, 2, 2},
		"non-finite": {0.1, math.NaN(), 0.1},
		"empty":      nil,
	} {
		if checkLoss([]float64{2, 2}, measured) == nil {
			t.Errorf("checkLoss accepted a %s loss", name)
		}
	}
	ok := func(hash string) *schedRep {
		return &schedRep{hash: hash, report: &job.SchedReport{Jobs: 5, Done: 5}}
	}
	if err := checkReports([]*schedRep{ok("a"), ok("a")}); err != nil {
		t.Errorf("checkReports rejected identical reports: %v", err)
	}
	if checkReports([]*schedRep{ok("a"), ok("b")}) == nil {
		t.Error("checkReports accepted differing report hashes")
	}
	undone := ok("a")
	undone.report.Done = 4
	if checkReports([]*schedRep{undone}) == nil {
		t.Error("checkReports accepted an unfinished job")
	}
	res := newResult("w", 10, nil, checkReduced(3))
	if res.Correct || res.Failed != 10 || len(res.Notes) != 1 {
		t.Errorf("a failed check must fail every operation: %+v", res)
	}
}

func msDur(v float64) time.Duration { return time.Duration(v * 1e6) }

func TestSpanSelfTime(t *testing.T) {
	r := newRecorder()
	at := func(name string, parent int, fromMs, toMs float64) int {
		id := r.begin(name, 1, parent, 0)
		r.spans[id-1].Start, r.spans[id-1].End = msDur(fromMs), msDur(toMs)
		return id
	}
	root := at("root", 0, 0, 10)
	at("child", root, 1, 4)
	at("child", root, 3, 6)   // overlaps the first: the union covers 1..6
	at("child", root, 9, 12)  // clipped to the parent's end
	at("open", root, 2, -1e6) // never ended: ignored
	if got := r.selfMs("root"); math.Abs(got-4) > 1e-9 {
		t.Errorf("root self time %v ms, want 4", got)
	}
	if got := len(r.ms("child")); got != 3 {
		t.Errorf("%d child spans, want 3", got)
	}
}

func TestCompare(t *testing.T) {
	d := def{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.08}
	base := []float64{100, 101, 99, 100, 100}
	for want, cand := range map[string][]float64{
		improved:   {120, 121, 119, 120, 120},
		within:     {97, 98, 96, 97, 97},
		regressed:  {80, 81, 79, 80, 80},
		unresolved: {60, 140, 80, 120, 100},
	} {
		if got, _, _ := verdict(d, base, cand); got != want {
			t.Errorf("candidate %v: verdict %q, want %q", cand, got, want)
		}
	}
	// The quartiles are those of Python's statistics.quantiles(v, n=4).
	if got := spreadOf([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-(8.25-2.75)/5) > 1e-12 {
		t.Errorf("spread %v", got)
	}

	file := func(ops float64, failed int, hash string) *resultFile {
		f := &resultFile{Seed: 1, Sizes: fullSizes, Workloads: map[string]*workloadRuns{}}
		for _, w := range workloads {
			f.Workloads[w.name] = &workloadRuns{
				Attempted: 100, Failed: failed,
				Metrics: map[string]*series{"ops_per_s": {Unit: "1/s", Values: []float64{ops, ops, ops}}},
				Exact:   map[string]string{"report_sha256": hash},
			}
		}
		return f
	}
	if _, bad := compareFiles(file(100, 0, "a"), file(99, 0, "a")); bad {
		t.Error("a 1% change within an 8% bound must pass")
	}
	if _, bad := compareFiles(file(100, 0, "a"), file(80, 0, "a")); !bad {
		t.Error("a 20% throughput loss must fail")
	}
	if _, bad := compareFiles(file(100, 0, "a"), file(100, 0, "b")); !bad {
		t.Error("a different report hash for the same seed must fail")
	}
	if _, bad := compareFiles(file(100, 0, "a"), file(100, 5, "a")); !bad {
		t.Error("a larger failed share must fail")
	}
}
