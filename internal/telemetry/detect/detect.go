// Package detect turns the live per-rank telemetry stream into imbalance
// diagnoses: per-step rank skew and persistent-straggler flags. The paper's
// scaling anomalies (exposed communication, one slow rank serializing the
// bulk-synchronous step) show up first as cross-rank step-latency skew;
// this detector computes it online from the snapshots the Publisher pushes,
// or from direct per-step observations (the simulator's injection path).
//
// Per rank it maintains an EWMA of mean step latency. A rank is flagged as
// a straggler when its EWMA exceeds threshold x the median EWMA across
// ranks for window consecutive observations — the persistence requirement
// keeps one garbage-collection hiccup from paging anyone. Results surface
// as telemetry gauges (detect.step_skew{rank=N}, detect.straggler{rank=N}),
// a counter (detect.straggler_flags) and train.straggler trace instants, so
// they ride the same export pipeline as every other metric.
package detect

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"dnnperf/internal/telemetry"
)

const (
	// alpha is the EWMA smoothing factor in (0,1]; higher reacts faster.
	alpha = 0.4
	// threshold is the skew ratio over the median EWMA that marks a rank
	// slow.
	threshold = 1.5
	// window is how many consecutive over-threshold observations flag a
	// persistent straggler.
	window = 3
	// minRanks is the minimum number of ranks with data before skew is
	// meaningful.
	minRanks = 2
)

// rankState is one rank's running view.
type rankState struct {
	ewma float64 // smoothed mean step latency, ns
	over int     // consecutive observations above threshold
	flag bool    // currently flagged as straggler

	// Snapshot-delta bookkeeping (ObserveSnapshot).
	lastSum   int64
	lastCount int64

	skewGauge *telemetry.Gauge
	flagGauge *telemetry.Gauge
}

// Detector consumes per-rank step latencies and flags stragglers.
type Detector struct {
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	flags  *telemetry.Counter
	skew   *telemetry.Gauge

	mu    sync.Mutex
	ranks map[int]*rankState
}

// New builds a detector. reg may be nil (detached handles); tracer may be
// nil (no instants).
func New(reg *telemetry.Registry, tracer *telemetry.Tracer) *Detector {
	return &Detector{
		reg:    reg,
		tracer: tracer,
		flags:  reg.Counter("detect.straggler_flags"),
		skew:   reg.Gauge("detect.max_skew"),
		ranks:  make(map[int]*rankState),
	}
}

func (d *Detector) state(rank int) *rankState {
	rs := d.ranks[rank]
	if rs == nil {
		l := telemetry.L("rank", strconv.Itoa(rank))
		rs = &rankState{
			skewGauge: d.reg.Gauge("detect.step_skew", l),
			flagGauge: d.reg.Gauge("detect.straggler", l),
		}
		d.ranks[rank] = rs
	}
	return rs
}

// ObserveStep feeds one direct step-latency sample for rank — the
// injection/confirmation path the simulator uses — and re-evaluates skew.
func (d *Detector) ObserveStep(rank int, latency time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.observe(rank, float64(latency))
}

// ObserveSnapshot feeds one rank's pushed metrics snapshot: the mean step
// latency over the interval since that rank's previous snapshot is derived
// from the train.step_ns histogram deltas. Snapshots without new steps are
// ignored (no EWMA decay on idle pushes).
func (d *Detector) ObserveSnapshot(snap telemetry.Snapshot) {
	hs, ok := snap.Histograms["train.step_ns"]
	if !ok {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	rs := d.state(snap.Rank)
	dSum := hs.Sum - rs.lastSum
	dCount := hs.Count - rs.lastCount
	if dCount < 0 || dSum < 0 {
		// The rank restarted its registry (counters went backwards): resync.
		rs.lastSum, rs.lastCount = hs.Sum, hs.Count
		return
	}
	if dCount == 0 {
		return
	}
	rs.lastSum, rs.lastCount = hs.Sum, hs.Count
	d.observe(snap.Rank, float64(dSum)/float64(dCount))
}

// observe updates rank's EWMA with one latency sample (ns) and re-evaluates
// every rank's skew against the fresh median. Caller holds d.mu.
func (d *Detector) observe(rank int, latencyNS float64) {
	rs := d.state(rank)
	if rs.ewma == 0 {
		rs.ewma = latencyNS
	} else {
		rs.ewma = alpha*latencyNS + (1-alpha)*rs.ewma
	}
	if len(d.ranks) < minRanks {
		return
	}

	med := d.medianEWMA()
	if med <= 0 {
		return
	}
	maxSkew := 0.0
	for r, st := range d.ranks {
		if st.ewma == 0 {
			continue
		}
		skew := st.ewma / med
		st.skewGauge.Set(skew)
		if skew > maxSkew {
			maxSkew = skew
		}
		if skew > threshold {
			st.over++
		} else {
			st.over = 0
			if st.flag {
				st.flag = false
				st.flagGauge.Set(0)
			}
		}
		if st.over >= window && !st.flag {
			st.flag = true
			st.flagGauge.Set(1)
			d.flags.Inc()
			d.tracer.Instant("train.straggler", "detect", map[string]any{
				"rank":    r,
				"skew":    skew,
				"ewma_ms": st.ewma / 1e6,
			})
		}
	}
	d.skew.Set(maxSkew)
}

// medianEWMA returns the median of all non-zero rank EWMAs. Caller holds d.mu.
func (d *Detector) medianEWMA() float64 {
	vals := make([]float64, 0, len(d.ranks))
	for _, st := range d.ranks {
		if st.ewma > 0 {
			vals = append(vals, st.ewma)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// Stragglers returns the currently flagged ranks, sorted ascending.
func (d *Detector) Stragglers() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []int
	for r, st := range d.ranks {
		if st.flag {
			out = append(out, r)
		}
	}
	sort.Ints(out)
	return out
}

// Skew returns the latest max EWMA/median ratio across ranks (0 until
// enough ranks have reported).
func (d *Detector) Skew() float64 { return d.skew.Value() }
