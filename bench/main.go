// Command bench is the repository's performance ledger: four end-to-end
// workloads and, from a separate traced run, a per-layer budget under each.
//
//	go run ./bench                      every workload, each in a fresh child process
//	go run ./bench -trace 1             the traced runs: per-layer metrics, budget, trace files
//	go run ./bench -runs 5 -out a.json  repeated runs side by side, for compare
//	go run ./bench compare a.json b.json
//	go run ./bench -workload sched_des_5k -seed 3 -seconds 10 -trace 0
//
// The last form is what the benchmark driver calls, through run.sh
// (BENCHMARK.json): one workload in this process, ending with one JSON object
// on the last line.
// README.md explains the workloads, the metrics and how to read the budget.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

var procStart = time.Now()

// runSeconds is BENCHMARK.json's run_seconds: how long the driver lets each
// measured phase run, and the default here so both measure the same thing.
const runSeconds = 10

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "run this one workload in this process (default: all four, each in a child process)")
	seed := flag.Int64("seed", 1, "seed for data shards, tensor-size order and the synthetic job stream")
	seconds := flag.Float64("seconds", runSeconds, "length of each measured phase")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics and bench/out/trace-<workload>.json")
	runs := flag.Int("runs", 1, "without -workload: runs per workload, recorded side by side")
	out := flag.String("out", "bench/out/result.json", "without -workload: where the result file goes")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if w := envWarning(); w != "" {
		fmt.Println("warning:", w)
	}
	var err error
	if *name != "" {
		err = runOne(*name, config{seed: *seed, seconds: *seconds, trace: *trace == 1, sz: fullSizes, outDir: "bench/out"})
	} else {
		err = runAll(*seed, *seconds, *trace, *runs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload here and prints its metrics by name, a "detail"
// line for the parent process, and the driver's result line last.
func runOne(name string, c config) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	c.preamble = time.Since(procStart)
	res, err := w.run(c)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	printResult(res)
	detail, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("detail %s\n", detail)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for k, m := range res.Metrics {
		line.Metrics[k] = value{m.Value, m.Unit}
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", last)
	return nil
}

func printResult(res *result) {
	fmt.Printf("== %s: %d operations attempted, %d failed\n", res.Workload, res.Attempted, res.Failed)
	for _, note := range res.Notes {
		fmt.Println("FAILED CHECK:", note)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		samples := ""
		if m.N > 0 {
			samples = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Printf("  %-38s %16.6g %s%s\n", k, m.Value, m.Unit, samples)
	}
	keys := make([]string, 0, len(res.Exact))
	for k := range res.Exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  exact %-32s %s\n", k, res.Exact[k])
	}
	if len(res.Spans) > 0 {
		fmt.Println("  spans: name, count, total ms, self ms")
		for _, s := range res.Spans {
			fmt.Printf("    %-28s %8d %12.3f %12.3f\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
		}
	}
	if b, ok := res.Metrics["bench.budget_explained_ms"]; ok && b.Value != 0 {
		u := res.Metrics["bench.budget_unexplained_ms"].Value
		fmt.Printf("  budget: observed %.3f ms = explained %.3f ms + unexplained %.3f ms (%.1f%%)\n",
			b.Value+u, b.Value, u, 100*res.Metrics["bench.budget_unexplained_frac"].Value)
	}
}

// environment stamps a result file with what the numbers depend on.
type environment struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	GitSHA     string `json:"git_sha"`
}

func stampEnvironment() environment {
	e := environment{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitSHA: "unknown"}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if sha, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.GitSHA = strings.TrimSpace(string(sha))
	}
	return e
}

// envWarning names what makes this machine's numbers incomparable with the
// reference box's. It is a warning, never a failure.
func envWarning() string {
	n, p := runtime.NumCPU(), runtime.GOMAXPROCS(0)
	switch {
	case n < ranks:
		return fmt.Sprintf("nproc %d < %d ranks: step workloads will measure the Go scheduler", n, ranks)
	case p != n:
		return fmt.Sprintf("GOMAXPROCS %d != nproc %d", p, n)
	}
	return ""
}

// resultFile is what `go run ./bench` writes and `bench compare` reads.
type resultFile struct {
	Env       environment              `json:"env"`
	Seed      int64                    `json:"seed"`
	Seconds   float64                  `json:"seconds"`
	Trace     bool                     `json:"trace"`
	Sizes     sizes                    `json:"sizes"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

// workloadRuns holds one workload's repeated runs side by side.
type workloadRuns struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Metrics maps a name to its value in every run, in run order.
	Metrics map[string]*series `json:"metrics"`
	Exact   map[string]string  `json:"exact,omitempty"`
	Notes   []string           `json:"notes,omitempty"`
	Spans   []spanTotals       `json:"spans,omitempty"`
}

type series struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Values []float64 `json:"values"`
	N      int       `json:"n,omitempty"` // samples behind a percentile, last run
}

// runAll runs every workload in a fresh child process per run, prints what
// the children print, and writes the result file.
func runAll(seed int64, seconds float64, trace, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Env: stampEnvironment(), Seed: seed, Seconds: seconds, Trace: trace == 1, Sizes: fullSizes, Workloads: map[string]*workloadRuns{}}
	fmt.Printf("env: %s, nproc %d, GOMAXPROCS %d, %s, git %s, seed %d\n", file.Env.CPU, file.Env.NumCPU, file.Env.GOMAXPROCS, file.Env.GoVersion, file.Env.GitSHA, seed)
	for _, w := range workloads {
		wr := &workloadRuns{Metrics: map[string]*series{}}
		file.Workloads[w.name] = wr
		for i := 0; i < runs; i++ {
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			res, err := childResult(stdout)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			wr.add(res)
		}
	}
	for _, wr := range file.Workloads {
		for _, s := range wr.Metrics {
			s.Median = median(s.Values)
		}
	}
	enc, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(enc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}

// childResult echoes a child's human-readable lines and decodes its detail
// line.
func childResult(stdout []byte) (*result, error) {
	var res *result
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "detail "); ok {
			res = &result{}
			if err := json.Unmarshal([]byte(rest), res); err != nil {
				return nil, err
			}
		} else if !strings.HasPrefix(line, "{") {
			fmt.Println(line)
		}
	}
	if res == nil {
		return nil, fmt.Errorf("child printed no detail line")
	}
	return res, sc.Err()
}

func (wr *workloadRuns) add(res *result) {
	wr.Attempted += res.Attempted
	wr.Failed += res.Failed
	wr.Notes = append(wr.Notes, res.Notes...)
	wr.Exact, wr.Spans = res.Exact, res.Spans
	for k, m := range res.Metrics {
		s := wr.Metrics[k]
		if s == nil {
			s = &series{Unit: m.Unit}
			wr.Metrics[k] = s
		}
		s.Values = append(s.Values, m.Value)
		s.N = m.N
	}
}
