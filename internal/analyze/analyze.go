// Package analyze is the post-hoc critical-path attribution engine behind
// `dnnperf analyze`: it ingests a merged Chrome trace (and optionally the
// merged metrics document) from a training run and decomposes where the
// time went — per-step compute, exposed communication transfer, straggler-
// induced wait, checkpoint and recovery overhead — plus the cross-rank
// critical path of every step, the bottleneck rank and resource, and the
// scaling efficiency against an ideal compute-only baseline.
//
// The analysis is a pure function of its input: every reported quantity is
// an integer microsecond count or a deterministic derivation thereof, and
// slices are emitted in sorted order, so analyzing the same trace twice
// yields byte-identical JSON reports.
package analyze

import (
	"fmt"
	"math"
	"sort"

	"dnnperf/internal/telemetry"
)

// Span names the trainer and supervisor emit; the analyzer keys on these.
const (
	spanStep       = "train.step"
	spanForward    = "train.forward"
	spanBackward   = "train.backward"
	spanOptimizer  = "train.optimizer"
	spanWait       = "train.allreduce_wait"
	spanCheckpoint = "train.checkpoint"
	spanRecovery   = "train.recovery"
	spanRegrow     = "train.regrow"
	spanRejoin     = "train.rejoin"
	spanPreempt    = "train.preempt"
	spanFlow       = "mpi.flow"
)

// Schema identifies the report format version.
const Schema = "dnnperf-analyze/v1"

// Decomposition is a wall-time breakdown in integer microseconds. Components
// are disjoint by construction: straggler wait is the part of the exposed
// allreduce wait in excess of the fastest rank's wait (which is attributed
// to genuine transfer), so the pieces sum to the attributed time exactly.
type Decomposition struct {
	ComputeUS       int64 `json:"compute_us"`        // forward + backward + optimizer
	CommTransferUS  int64 `json:"comm_transfer_us"`  // exposed allreduce wait every rank pays
	StragglerWaitUS int64 `json:"straggler_wait_us"` // excess wait induced by slower peers
	CheckpointUS    int64 `json:"checkpoint_us"`     // train.checkpoint spans
	RecoveryUS      int64 `json:"recovery_us"`       // recovery + regrow + rejoin + preempt spans
	OtherUS         int64 `json:"other_us"`          // in-step time no phase span explains
}

func (d Decomposition) attributed() int64 {
	return d.ComputeUS + d.CommTransferUS + d.StragglerWaitUS + d.CheckpointUS + d.RecoveryUS
}

func (d *Decomposition) add(o Decomposition) {
	d.ComputeUS += o.ComputeUS
	d.CommTransferUS += o.CommTransferUS
	d.StragglerWaitUS += o.StragglerWaitUS
	d.CheckpointUS += o.CheckpointUS
	d.RecoveryUS += o.RecoveryUS
	d.OtherUS += o.OtherUS
}

// RankStep is one rank's share of one step.
type RankStep struct {
	Rank      int   `json:"rank"`
	WallUS    int64 `json:"wall_us"`
	ComputeUS int64 `json:"compute_us"`
	WaitUS    int64 `json:"wait_us"`
	OtherUS   int64 `json:"other_us"`
}

// StepReport is the cross-rank view of one training step: the wall time
// (slowest rank), the rank on the critical path, and the critical path's
// decomposition. CommTransferUS is the minimum exposed wait across ranks —
// the transfer cost even the slowest rank could not avoid — and
// StragglerWaitUS is the critical rank's wait in excess of that.
type StepReport struct {
	Index    int           `json:"index"` // ordinal step per rank (0-based)
	Ranks    int           `json:"ranks"` // ranks contributing this ordinal
	WallUS   int64         `json:"wall_us"`
	CritRank int           `json:"crit_rank"`
	Decomp   Decomposition `json:"decomp"`
	PerRank  []RankStep    `json:"per_rank,omitempty"`
}

// RankTotal is one rank's whole-run accounting.
type RankTotal struct {
	Rank      int   `json:"rank"`
	Steps     int   `json:"steps"`
	WallUS    int64 `json:"wall_us"` // Σ step spans (+ its elastic/checkpoint spans)
	ComputeUS int64 `json:"compute_us"`
	WaitUS    int64 `json:"wait_us"`
}

// ElasticEvent is one first-class lifecycle span (recovery, regrow, rejoin,
// preemption, checkpoint) lifted out of the trace.
type ElasticEvent struct {
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	TSUS   int64  `json:"ts_us"`
	DurUS  int64  `json:"dur_us"`
	Detail string `json:"detail,omitempty"`
}

// FlowStats summarizes the cross-rank causal arrows present in the trace.
type FlowStats struct {
	Starts   int `json:"starts"`
	Finishes int `json:"finishes"`
	// Matched counts distinct flow ids seen on both the producing and a
	// consuming rank — the arrows a viewer will actually draw.
	Matched int `json:"matched"`
}

// Bottleneck names the rank and resource the job is limited by.
type Bottleneck struct {
	Rank     int    `json:"rank"`
	Resource string `json:"resource"` // "compute" or "network"
	// Share is the bottleneck rank's compute as a fraction of the mean
	// rank compute (1.0 = perfectly balanced; 2.0 = twice the work).
	SharePermille int64 `json:"share_permille"`
}

// Report is the full analysis document.
type Report struct {
	Schema    string `json:"schema"`
	Truncated bool   `json:"truncated,omitempty"`

	Ranks []int        `json:"ranks"`
	Steps []StepReport `json:"steps"`

	Totals     Decomposition `json:"totals"`
	WallUS     int64         `json:"wall_us"`             // Σ accounted wall across ranks
	CoverageMn int64         `json:"coverage_permille"`   // attributed / wall, in ‰
	EffMn      int64         `json:"efficiency_permille"` // compute / wall, in ‰ (vs 1-rank ideal)
	CommFracMn int64         `json:"comm_frac_permille"`  // exposed comm / wall, in ‰
	Bottleneck Bottleneck    `json:"bottleneck"`
	PerRank    []RankTotal   `json:"per_rank"`

	Flows   FlowStats      `json:"flows"`
	Elastic []ElasticEvent `json:"elastic,omitempty"`

	Metrics *MetricsSummary `json:"metrics,omitempty"`
}

// Options tunes the analysis.
type Options struct {
	// MaxSteps caps the per-step section of the report (0 = 64). Totals
	// always cover every step.
	MaxSteps int
	// PerRankSteps includes the per-rank breakdown inside each StepReport.
	PerRankSteps bool
}

// us converts Chrome-trace microsecond floats to integer microseconds.
func us(v float64) int64 { return int64(math.Round(v)) }

// rankEvents is one rank's events split by role.
type rankEvents struct {
	steps   []telemetry.TraceEvent // train.step X events, sorted by TS
	phases  []telemetry.TraceEvent // in-step phase X events, sorted by TS
	elastic []telemetry.TraceEvent // lifecycle X events, sorted by TS
}

// Trace analyzes a merged trace (pid = rank). Simulated lanes
// (pid = telemetry.SimPID) are ignored.
func Trace(events []telemetry.TraceEvent, opts Options) *Report {
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 64
	}
	perRank := map[int]*rankEvents{}
	flowStart := map[uint64]bool{}
	flowFinish := map[uint64]bool{}
	var flows FlowStats
	for _, ev := range events {
		if ev.PID == telemetry.SimPID {
			continue
		}
		switch ev.Ph {
		case "s":
			if ev.Name == spanFlow {
				flows.Starts++
				flowStart[ev.ID] = true
			}
			continue
		case "f":
			if ev.Name == spanFlow {
				flows.Finishes++
				flowFinish[ev.ID] = true
			}
			continue
		case "X":
		default:
			continue
		}
		re := perRank[ev.PID]
		if re == nil {
			re = &rankEvents{}
			perRank[ev.PID] = re
		}
		switch ev.Name {
		case spanStep:
			re.steps = append(re.steps, ev)
		case spanForward, spanBackward, spanOptimizer, spanWait:
			re.phases = append(re.phases, ev)
		case spanCheckpoint, spanRecovery, spanRegrow, spanRejoin, spanPreempt:
			re.elastic = append(re.elastic, ev)
		}
	}
	for id := range flowStart {
		if flowFinish[id] {
			flows.Matched++
		}
	}

	ranks := make([]int, 0, len(perRank))
	for r := range perRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)

	rep := &Report{Schema: Schema, Ranks: ranks, Flows: flows}

	// Per-rank, per-ordinal step accounting.
	type stepAcct struct {
		wall, compute, wait int64
	}
	byRank := map[int][]stepAcct{}
	maxSteps := 0
	for _, r := range ranks {
		re := perRank[r]
		sort.SliceStable(re.steps, func(i, j int) bool { return re.steps[i].TS < re.steps[j].TS })
		sort.SliceStable(re.phases, func(i, j int) bool { return re.phases[i].TS < re.phases[j].TS })
		sort.SliceStable(re.elastic, func(i, j int) bool { return re.elastic[i].TS < re.elastic[j].TS })
		accts := make([]stepAcct, len(re.steps))
		pi := 0
		for i, st := range re.steps {
			end := st.TS + st.Dur
			a := &accts[i]
			a.wall = us(st.Dur)
			for pi < len(re.phases) && re.phases[pi].TS < end {
				p := re.phases[pi]
				if p.TS >= st.TS {
					switch p.Name {
					case spanWait:
						a.wait += us(p.Dur)
					default:
						a.compute += us(p.Dur)
					}
				}
				pi++
			}
		}
		byRank[r] = accts
		if len(accts) > maxSteps {
			maxSteps = len(accts)
		}
		var rt RankTotal
		rt.Rank = r
		rt.Steps = len(accts)
		for _, a := range accts {
			rt.WallUS += a.wall
			rt.ComputeUS += a.compute
			rt.WaitUS += a.wait
		}
		for _, ev := range re.elastic {
			d := us(ev.Dur)
			rt.WallUS += d
			detail := ""
			if v, ok := ev.Args["failed_ranks"]; ok {
				detail = fmt.Sprintf("failed_ranks=%v", v)
			} else if v, ok := ev.Args["joined"]; ok {
				detail = fmt.Sprintf("joined=%v", v)
			} else if v, ok := ev.Args["step"]; ok {
				detail = fmt.Sprintf("step=%v", v)
			} else if v, ok := ev.Args["preempted_step"]; ok {
				detail = fmt.Sprintf("preempted_step=%v", v)
			}
			rep.Elastic = append(rep.Elastic, ElasticEvent{
				Name: ev.Name, Rank: r, TSUS: us(ev.TS), DurUS: d, Detail: detail,
			})
			switch ev.Name {
			case spanCheckpoint:
				rep.Totals.CheckpointUS += d
			default:
				rep.Totals.RecoveryUS += d
			}
		}
	}
	sort.SliceStable(rep.Elastic, func(i, j int) bool {
		a, b := rep.Elastic[i], rep.Elastic[j]
		if a.TSUS != b.TSUS {
			return a.TSUS < b.TSUS
		}
		return a.Rank < b.Rank
	})

	// Cross-rank step reports: align steps by ordinal. After an elastic
	// rollback ranks re-run steps, so ordinal k is "the k-th step this rank
	// executed", which keeps lock-step ranks aligned in the common case.
	computeTotal := map[int]int64{}
	for ord := 0; ord < maxSteps; ord++ {
		var sr StepReport
		sr.Index = ord
		sr.CritRank = -1
		var critWall int64 = -1
		minWait := int64(math.MaxInt64)
		var critCompute, critWait int64
		var maxCompute int64 = -1
		for _, r := range ranks {
			accts := byRank[r]
			if ord >= len(accts) {
				continue
			}
			a := accts[ord]
			sr.Ranks++
			computeTotal[r] += a.compute
			if a.wait < minWait {
				minWait = a.wait
			}
			if a.wall > critWall {
				critWall = a.wall
			}
			// The critical rank is the one that gates the collective: in
			// lock-step data parallelism every rank's wall equalizes to the
			// slowest, so the max-compute rank — not max-wall — is the one
			// the others are waiting on.
			if a.compute > maxCompute {
				maxCompute = a.compute
				sr.CritRank = r
				critCompute, critWait = a.compute, a.wait
			}
			if opts.PerRankSteps {
				other := a.wall - a.compute - a.wait
				if other < 0 {
					other = 0
				}
				sr.PerRank = append(sr.PerRank, RankStep{
					Rank: r, WallUS: a.wall, ComputeUS: a.compute, WaitUS: a.wait, OtherUS: other,
				})
			}
		}
		if sr.Ranks == 0 {
			continue
		}
		sr.WallUS = critWall
		// Critical-path decomposition: the slowest rank's phases, with its
		// exposed wait split into unavoidable transfer (the fastest rank's
		// wait — everyone pays at least that) and straggler-induced excess.
		transfer := minWait
		if transfer > critWait {
			transfer = critWait
		}
		sr.Decomp.ComputeUS = critCompute
		sr.Decomp.CommTransferUS = transfer
		sr.Decomp.StragglerWaitUS = critWait - transfer
		other := critWall - critCompute - critWait
		if other < 0 {
			other = 0
		}
		sr.Decomp.OtherUS = other
		if len(rep.Steps) < opts.MaxSteps {
			rep.Steps = append(rep.Steps, sr)
		}
	}

	// Job totals: sum per-rank accounting (not just critical paths), so the
	// decomposition explains all accounted wall time across every rank.
	for _, r := range ranks {
		accts := byRank[r]
		for ord, a := range accts {
			_ = ord
			rep.Totals.ComputeUS += a.compute
			rep.WallUS += a.wall
		}
	}
	// Split every rank's wait per ordinal into transfer vs straggler excess.
	for ord := 0; ord < maxSteps; ord++ {
		minWait := int64(math.MaxInt64)
		n := 0
		for _, r := range ranks {
			if ord < len(byRank[r]) {
				if w := byRank[r][ord].wait; w < minWait {
					minWait = w
				}
				n++
			}
		}
		if n == 0 {
			continue
		}
		for _, r := range ranks {
			if ord < len(byRank[r]) {
				w := byRank[r][ord].wait
				rep.Totals.CommTransferUS += minWait
				rep.Totals.StragglerWaitUS += w - minWait
			}
		}
	}
	rep.WallUS += rep.Totals.CheckpointUS + rep.Totals.RecoveryUS
	rep.Totals.OtherUS = rep.WallUS - rep.Totals.attributed()
	if rep.Totals.OtherUS < 0 {
		rep.Totals.OtherUS = 0
	}

	if rep.WallUS > 0 {
		rep.CoverageMn = permille(rep.Totals.attributed(), rep.WallUS)
		rep.EffMn = permille(rep.Totals.ComputeUS, rep.WallUS)
		rep.CommFracMn = permille(rep.Totals.CommTransferUS+rep.Totals.StragglerWaitUS, rep.WallUS)
	}

	// Bottleneck: the rank whose compute dominates (the straggler everyone
	// waits for), and whether the job is compute- or network-bound overall.
	var sumCompute int64
	for _, r := range ranks {
		sumCompute += computeTotal[r]
	}
	rep.Bottleneck.Rank = -1
	var maxCompute int64 = -1
	for _, r := range ranks {
		if c := computeTotal[r]; c > maxCompute {
			maxCompute = c
			rep.Bottleneck.Rank = r
		}
	}
	if len(ranks) > 0 && sumCompute > 0 {
		mean := sumCompute / int64(len(ranks))
		if mean > 0 {
			rep.Bottleneck.SharePermille = permille(maxCompute, mean)
		}
	}
	// Straggler-induced wait is a compute imbalance wearing a comm span, so
	// only genuine transfer time argues for a network bottleneck: the job is
	// network-bound when the wait every rank pays exceeds its compute.
	if rep.Totals.CommTransferUS > rep.Totals.ComputeUS {
		rep.Bottleneck.Resource = "network"
	} else {
		rep.Bottleneck.Resource = "compute"
	}

	for _, r := range ranks {
		var rt RankTotal
		rt.Rank = r
		rt.Steps = len(byRank[r])
		for _, a := range byRank[r] {
			rt.WallUS += a.wall
			rt.ComputeUS += a.compute
			rt.WaitUS += a.wait
		}
		rep.PerRank = append(rep.PerRank, rt)
	}
	return rep
}

// permille returns round(1000 * num / den); 0 when den == 0.
func permille(num, den int64) int64 {
	if den == 0 {
		return 0
	}
	return int64(math.Round(1000 * float64(num) / float64(den)))
}
