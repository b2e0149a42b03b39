package scenario

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"dnnperf/internal/train"
)

// evalAssert checks one postcondition against the run's outcome. Every
// check degrades to a failing result with a diagnostic detail rather than
// an error: a scenario whose assertions cannot even be evaluated has
// failed, not crashed.
func evalAssert(a Assert, oc *outcome) AssertResult {
	res := AssertResult{Check: a.Check}
	switch a.Check {
	case "recovered_within":
		res.Pass, res.Detail = assertRecoveredWithin(a.Within.D(), oc)
	case "outcome":
		res.Pass, res.Detail = assertOutcome(a.Equals, oc)
	case "final_step":
		want := int64(a.Value)
		if want <= 0 {
			want = int64(oc.spec.JobSpec().Steps)
		}
		res.Pass, res.Detail = assertFinalStep(want, oc)
	case "checkpoint_valid":
		res.Pass, res.Detail = assertCheckpointValid(oc)
	case "throughput_floor":
		res.Pass = oc.throughput >= a.Value
		res.Detail = fmt.Sprintf("%.2f img/s (floor %.2f)", oc.throughput, a.Value)
	case "straggler_flagged":
		res.Pass, res.Detail = assertStragglerFlagged(a.Rank, oc)
	case "typed_errors":
		res.Pass = oc.typedErrors >= int64(a.Value)
		res.Detail = fmt.Sprintf("%d typed peer errors (want >= %d)", oc.typedErrors, int64(a.Value))
	case "min_dropped":
		var dropped int64
		for _, st := range oc.stats {
			dropped += st.Dropped
		}
		res.Pass = dropped >= int64(a.Value)
		res.Detail = fmt.Sprintf("%d sends dropped (want >= %d)", dropped, int64(a.Value))
	case "metric_min", "metric_max":
		res.Pass, res.Detail = assertMetric(a, oc)
	case "latency_p99_max":
		res.Pass, res.Detail = assertHistQuantile(a, 0.99, oc)
	case "step_time_p50_max":
		res.Pass, res.Detail = assertHistQuantile(a, 0.50, oc)
	case "world_size_final":
		res.Pass, res.Detail = assertWorldSizeFinal(int(a.Value), oc)
	case "regrown_within":
		res.Pass, res.Detail = assertRegrownWithin(a.Within.D(), oc)
	case "no_split_brain":
		res.Pass, res.Detail = assertNoSplitBrain(oc)
	case "sched_complete":
		res.Pass, res.Detail = assertSchedComplete(oc)
	case "utilization_min":
		if oc.sched == nil {
			res.Detail = "run produced no sched report"
			break
		}
		res.Pass = oc.sched.Utilization >= a.Value
		res.Detail = fmt.Sprintf("utilization %.4f (floor %.4f)", oc.sched.Utilization, a.Value)
	case "preemptions_min":
		if oc.sched == nil {
			res.Detail = "run produced no sched report"
			break
		}
		res.Pass = oc.sched.Preemptions >= int(a.Value)
		res.Detail = fmt.Sprintf("%d preemptions (want >= %d)", oc.sched.Preemptions, int(a.Value))
	default:
		res.Detail = fmt.Sprintf("unknown check %q", a.Check)
	}
	return res
}

// assertRecoveredWithin holds when every surviving supervised rank took
// part in at least one membership change — a shrink recovery or a regrow
// admission (a parked minority rank and a restarted joiner never shrink;
// their recovery IS the readmission) — and each change's wall latency
// stayed under the bound.
func assertRecoveredWithin(within time.Duration, oc *outcome) (bool, string) {
	if len(oc.supervised) == 0 {
		return false, "no surviving supervised ranks"
	}
	worst := time.Duration(0)
	for r, res := range oc.supervised {
		if len(res.Recoveries)+len(res.Regrows) == 0 {
			return false, fmt.Sprintf("rank %d never recovered", r)
		}
		for _, rec := range res.Recoveries {
			if rec.Latency > worst {
				worst = rec.Latency
			}
		}
		for _, rg := range res.Regrows {
			if rg.Latency > worst {
				worst = rg.Latency
			}
		}
	}
	if worst > within {
		return false, fmt.Sprintf("slowest recovery %v exceeds %v", worst.Round(time.Millisecond), within)
	}
	return true, fmt.Sprintf("slowest recovery %v (bound %v)", worst.Round(time.Millisecond), within)
}

// assertWorldSizeFinal holds when every surviving supervised rank ended in
// a world of the wanted size (0 = the job's declared rank count): the
// regrow brought everyone back, and nobody is stranded in a stale world.
func assertWorldSizeFinal(want int, oc *outcome) (bool, string) {
	if want <= 0 {
		js := oc.spec.JobSpec()
		want = js.Ranks()
	}
	if len(oc.supervised) == 0 {
		return false, "no surviving supervised ranks"
	}
	for r, res := range oc.supervised {
		if res.WorldSize != want {
			return false, fmt.Sprintf("rank %d ended in world of %d, want %d", r, res.WorldSize, want)
		}
	}
	return true, fmt.Sprintf("all %d surviving ranks ended in world of %d", len(oc.supervised), want)
}

// assertRegrownWithin holds when every surviving supervised rank saw at
// least one successful regrow and the slowest admission stayed under the
// bound.
func assertRegrownWithin(within time.Duration, oc *outcome) (bool, string) {
	if len(oc.supervised) == 0 {
		return false, "no surviving supervised ranks"
	}
	worst := time.Duration(0)
	for r, res := range oc.supervised {
		if len(res.Regrows) == 0 {
			return false, fmt.Sprintf("rank %d never regrew", r)
		}
		for _, rg := range res.Regrows {
			if rg.Latency > worst {
				worst = rg.Latency
			}
		}
	}
	if worst > within {
		return false, fmt.Sprintf("slowest regrow %v exceeds %v", worst.Round(time.Millisecond), within)
	}
	return true, fmt.Sprintf("slowest regrow %v (bound %v)", worst.Round(time.Millisecond), within)
}

// assertNoSplitBrain is the quorum rule's observable postcondition: every
// surviving rank must agree on the final world size AND report the same
// nonzero weights fingerprint — bit-identical model and optimizer state —
// and a rank that parked must have produced no shrink recovery of its own
// (the minority never formed a rival world). Divergent CRCs or a parked
// rank with recoveries are exactly what two concurrently-training
// partitions would leave behind.
func assertNoSplitBrain(oc *outcome) (bool, string) {
	if len(oc.supervised) == 0 {
		return false, "no surviving supervised ranks"
	}
	var crc uint32
	size := -1
	for r, res := range oc.supervised {
		if res.Parked && len(res.Recoveries) > 0 {
			return false, fmt.Sprintf("parked rank %d performed %d shrink recoveries", r, len(res.Recoveries))
		}
		if res.WeightsCRC == 0 {
			return false, fmt.Sprintf("rank %d has no weights fingerprint", r)
		}
		if crc == 0 {
			crc, size = res.WeightsCRC, res.WorldSize
			continue
		}
		if res.WeightsCRC != crc {
			return false, fmt.Sprintf("rank %d weights crc %08x disagrees with %08x", r, res.WeightsCRC, crc)
		}
		if res.WorldSize != size {
			return false, fmt.Sprintf("rank %d world size %d disagrees with %d", r, res.WorldSize, size)
		}
	}
	return true, fmt.Sprintf("%d ranks agree: world=%d weights_crc=%08x", len(oc.supervised), size, crc)
}

// assertSchedComplete is the control plane's liveness postcondition: the
// scheduler drained the entire stream — every job reached Done or Evicted,
// nothing Failed, and no gang deadlock had to be broken by force.
func assertSchedComplete(oc *outcome) (bool, string) {
	rep := oc.sched
	if rep == nil {
		return false, "run produced no sched report"
	}
	if rep.Done+rep.Evicted+rep.Failed != rep.Jobs {
		return false, fmt.Sprintf("%d of %d jobs unaccounted for",
			rep.Jobs-rep.Done-rep.Evicted-rep.Failed, rep.Jobs)
	}
	if rep.Failed > 0 {
		return false, fmt.Sprintf("%d jobs failed", rep.Failed)
	}
	if rep.Deadlocks > 0 {
		return false, fmt.Sprintf("%d gang deadlocks broken by eviction", rep.Deadlocks)
	}
	return true, fmt.Sprintf("%d jobs drained (%d done, %d evicted), no deadlocks",
		rep.Jobs, rep.Done, rep.Evicted)
}

func assertOutcome(want string, oc *outcome) (bool, string) {
	if len(oc.supervised) == 0 {
		return false, "no surviving supervised ranks"
	}
	for r, err := range oc.errs {
		if err != nil {
			return false, fmt.Sprintf("rank %d failed: %v", r, err)
		}
	}
	for r, res := range oc.supervised {
		if res.Outcome.String() != want {
			return false, fmt.Sprintf("rank %d outcome %s, want %s", r, res.Outcome, want)
		}
	}
	return true, fmt.Sprintf("all %d surviving ranks %s", len(oc.supervised), want)
}

func assertFinalStep(want int64, oc *outcome) (bool, string) {
	if len(oc.supervised) == 0 {
		return false, "no surviving supervised ranks"
	}
	for r, res := range oc.supervised {
		if res.FinalStep != want {
			return false, fmt.Sprintf("rank %d reached step %d, want %d", r, res.FinalStep, want)
		}
	}
	return true, fmt.Sprintf("all surviving ranks reached step %d", want)
}

// assertCheckpointValid loads the newest checkpoint through the scenario's
// own model factory — the same validation the supervisor's recovery path
// performs.
func assertCheckpointValid(oc *outcome) (bool, string) {
	if oc.ckptDir == "" {
		return false, "scenario has no checkpoint directory (set ckpt_every)"
	}
	paths, err := filepath.Glob(filepath.Join(oc.ckptDir, "ckpt-*.dnpf"))
	if err != nil || len(paths) == 0 {
		return false, "no checkpoint files written"
	}
	sort.Sort(sort.Reverse(sort.StringSlice(paths)))
	st, err := train.LoadTrainingCheckpointFile(paths[0], oc.newModel())
	if err != nil {
		return false, fmt.Sprintf("%s: %v", filepath.Base(paths[0]), err)
	}
	return true, fmt.Sprintf("%s valid at step %d (%d files)", filepath.Base(paths[0]), st.Step, len(paths))
}

func assertStragglerFlagged(rank int, oc *outcome) (bool, string) {
	for _, f := range oc.flagged {
		if f == rank {
			return true, fmt.Sprintf("rank %d flagged (all flagged: %v)", rank, oc.flagged)
		}
	}
	return false, fmt.Sprintf("rank %d not flagged (flagged: %v)", rank, oc.flagged)
}

// assertHistQuantile bounds a latency quantile: the named histogram's
// q-quantile must stay under `within` on every rank that recorded it.
// step_time_p50_max pins the median step time; latency_p99_max the tail.
// The bound is per rank, not merged: one slow rank hiding inside a healthy
// fleet is exactly what the check is for.
func assertHistQuantile(a Assert, q float64, oc *outcome) (bool, string) {
	if oc.merged == nil {
		return false, "run produced no merged metrics"
	}
	metric := a.Metric
	if metric == "" {
		metric = "train.step_ns"
	}
	bound := a.Within.D()
	worst := -1.0 // histogram unit: nanoseconds for the *_ns families
	worstRank := -1
	for _, snap := range oc.merged.Ranks {
		h, ok := snap.Histograms[metric]
		if !ok {
			continue
		}
		if v := h.Quantile(q); v > worst {
			worst, worstRank = v, snap.Rank
		}
	}
	if worstRank == -1 {
		return false, fmt.Sprintf("histogram %q not recorded on any rank", metric)
	}
	got := time.Duration(worst)
	if got > bound {
		return false, fmt.Sprintf("%s p%g = %v on rank %d exceeds %v", metric, q*100, got.Round(time.Millisecond), worstRank, bound)
	}
	return true, fmt.Sprintf("%s p%g = %v (worst rank %d, bound %v)", metric, q*100, got.Round(time.Millisecond), worstRank, bound)
}

func assertMetric(a Assert, oc *outcome) (bool, string) {
	if oc.merged == nil {
		return false, "run produced no merged metrics"
	}
	v, ok := oc.merged.Totals[a.Metric]
	if !ok {
		return false, fmt.Sprintf("metric %q not in merged totals", a.Metric)
	}
	if a.Check == "metric_min" {
		return float64(v) >= a.Value, fmt.Sprintf("%s=%d (want >= %g)", a.Metric, v, a.Value)
	}
	return float64(v) <= a.Value, fmt.Sprintf("%s=%d (want <= %g)", a.Metric, v, a.Value)
}
