package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// compareMain implements `bench compare <a.json> <b.json>`: a is the
// baseline, b the candidate. One row per workload and end-to-end metric;
// exit status 1 when anything regressed, when an exact statistic differs
// at the same sizes, or when b failed a larger share of its operations.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare <baseline.json> <candidate.json>")
		return 2
	}
	var files [2]*resultFile
	for i, path := range args {
		f, err := readResultFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
		files[i] = f
	}
	rows, bad := compareFiles(files[0], files[1])
	for _, r := range rows {
		fmt.Println(r)
	}
	if bad {
		return 1
	}
	return 0
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &resultFile{}
	if err := json.Unmarshal(raw, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// Verdicts of one row.
const (
	improved   = "improved"
	within     = "within bound"
	regressed  = "REGRESSED"
	unresolved = "unresolved" // the runs of one file spread wider than the bound
)

// verdict classifies candidate values b against baseline values a.
func verdict(d def, a, b []float64) (string, float64, float64) {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma // share of the baseline by which b is worse
	if d.Better == "higher" {
		worse = -worse
	}
	spread := max(spreadOf(a), spreadOf(b))
	switch {
	case spread > d.Bound:
		return unresolved, worse, spread
	case worse > d.Bound:
		return regressed, worse, spread
	case -worse > spread && -worse > 0:
		return improved, worse, spread
	}
	return within, worse, spread
}

// spreadOf is the distance between the first and third quartile as a share
// of the median, with the quartiles of Python's statistics.quantiles(n=4);
// below four values it is the whole range, and of a single value 0.
func spreadOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	lo, hi := s[0], s[n-1]
	if n >= 4 {
		q := func(i int) float64 {
			j := min(max(i*(n+1)/4, 1), n-1)
			delta := float64(i*(n+1) - j*4)
			return (s[j-1]*(4-delta) + s[j]*delta) / 4
		}
		lo, hi = q(1), q(3)
	}
	return (hi - lo) / median(s)
}

func compareFiles(a, b *resultFile) (rows []string, bad bool) {
	if a.Sizes != b.Sizes || a.Seconds != b.Seconds {
		rows = append(rows, "warning: the two files were measured with different sizes or run lengths")
	}
	if a.Env.CPU != b.Env.CPU || a.Env.NumCPU != b.Env.NumCPU || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS {
		rows = append(rows, fmt.Sprintf("warning: different machines: %s x%d vs %s x%d", a.Env.CPU, a.Env.NumCPU, b.Env.CPU, b.Env.NumCPU))
	}
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wb == nil {
			rows = append(rows, fmt.Sprintf("%-24s missing from one file", w.name))
			bad = true
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			if sa == nil || sb == nil {
				continue // a traced result file has no end-to-end metrics
			}
			v, worse, spread := verdict(d, sa.Values, sb.Values)
			bad = bad || v == regressed
			rows = append(rows, fmt.Sprintf("%-24s %-14s %14.6g -> %14.6g %-4s worse by %+6.2f%%  (bound %.0f%%, spread %.1f%%, n=%d,%d)  %s",
				w.name, d.Name, median(sa.Values), median(sb.Values), d.Unit, 100*worse, 100*d.Bound, 100*spread, len(sa.Values), len(sb.Values), v))
		}
		if a.Sizes == b.Sizes {
			keys := make([]string, 0, len(wa.Exact))
			for k := range wa.Exact {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				state := "same"
				if wa.Exact[k] != wb.Exact[k] {
					state, bad = "DIFFERS", true
				}
				rows = append(rows, fmt.Sprintf("%-24s exact %-20s %s -> %s  %s", w.name, k, wa.Exact[k], wb.Exact[k], state))
			}
		}
		fa, fb := float64(wa.Failed)/float64(wa.Attempted), float64(wb.Failed)/float64(wb.Attempted)
		state := "ok"
		if fb > fa {
			state, bad = "MORE FAILED", true
		}
		rows = append(rows, fmt.Sprintf("%-24s failed %d of %d -> %d of %d  %s", w.name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted, state))
	}
	return rows, bad
}
