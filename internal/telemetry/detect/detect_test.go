package detect

import (
	"testing"
	"time"

	"dnnperf/internal/telemetry"
)

// TestDetectorFlagsInjectedStragglerWithin10Steps is the acceptance bound:
// a rank running 2x slower than its peers must be flagged within 10 steps
// of direct observations under the default configuration.
func TestDetectorFlagsInjectedStragglerWithin10Steps(t *testing.T) {
	reg := telemetry.New()
	tracer := telemetry.NewTracer()
	d := New(reg, tracer)

	const ranks, slow = 4, 2
	flaggedAt := 0
	for step := 1; step <= 10; step++ {
		for r := 0; r < ranks; r++ {
			lat := 100 * time.Millisecond
			if r == slow {
				lat = 200 * time.Millisecond
			}
			d.ObserveStep(r, lat)
		}
		if flaggedAt == 0 {
			for _, f := range d.Stragglers() {
				if f == slow {
					flaggedAt = step
				}
			}
		}
	}
	if flaggedAt == 0 {
		t.Fatalf("2x-slow rank %d not flagged within 10 steps (stragglers: %v, skew %.2f)",
			slow, d.Stragglers(), d.Skew())
	}
	t.Logf("flagged at step %d", flaggedAt)
	if got := d.Stragglers(); len(got) != 1 || got[0] != slow {
		t.Errorf("stragglers = %v, want [%d]", got, slow)
	}
	if d.Skew() < 1.5 {
		t.Errorf("max skew %.2f, want >= threshold 1.5", d.Skew())
	}

	// The diagnosis rode the standard telemetry pipeline.
	snap := reg.Snapshot()
	if snap.Counters["detect.straggler_flags"] != 1 {
		t.Errorf("detect.straggler_flags = %d, want 1", snap.Counters["detect.straggler_flags"])
	}
	if snap.Gauges[`detect.straggler{rank=2}`] != 1 {
		t.Errorf("straggler gauge for rank 2 = %v", snap.Gauges[`detect.straggler{rank=2}`])
	}
	var instants int
	for _, ev := range tracer.Events() {
		if ev.Name == "train.straggler" {
			instants++
			if ev.Args["rank"] != slow {
				t.Errorf("instant names rank %v, want %d", ev.Args["rank"], slow)
			}
		}
	}
	if instants != 1 {
		t.Errorf("%d train.straggler instants, want 1", instants)
	}
}

// TestDetectorUnflagsRecoveredRank: a straggler that speeds back up loses
// its flag once its skew falls under the threshold.
func TestDetectorUnflagsRecoveredRank(t *testing.T) {
	d := New(nil, nil)
	feed := func(steps int, slowFactor float64) {
		for s := 0; s < steps; s++ {
			for r := 0; r < 3; r++ {
				lat := 100 * time.Millisecond
				if r == 0 {
					lat = time.Duration(float64(lat) * slowFactor)
				}
				d.ObserveStep(r, lat)
			}
		}
	}
	feed(8, 2.0)
	if got := d.Stragglers(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("stragglers = %v, want [0]", got)
	}
	feed(12, 1.0) // recovered: EWMA converges back to the median
	if got := d.Stragglers(); len(got) != 0 {
		t.Errorf("stragglers after recovery = %v, want none", got)
	}
}

// TestDetectorObserveSnapshot: the live path derives per-interval mean step
// latency from train.step_ns histogram deltas in pushed snapshots.
func TestDetectorObserveSnapshot(t *testing.T) {
	d := New(nil, nil)
	push := func(rank int, sum, count int64) {
		d.ObserveSnapshot(telemetry.Snapshot{
			Rank: rank,
			Histograms: map[string]telemetry.HistogramSnapshot{
				"train.step_ns": {Bounds: []int64{1}, Counts: []int64{0, count}, Sum: sum, Count: count},
			},
		})
	}
	stepNS := int64(100e6)
	for i := int64(1); i <= 8; i++ {
		push(0, i*stepNS, i)
		push(1, i*stepNS, i)
		push(2, i*2*stepNS, i) // rank 2 runs 2x slow
	}
	if got := d.Stragglers(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("stragglers = %v, want [2]", got)
	}

	// A snapshot without new steps is ignored (no EWMA decay on idle pushes).
	before := d.Skew()
	push(2, 8*2*stepNS, 8)
	if d.Skew() != before {
		t.Error("idle push moved the skew")
	}

	// Counters going backwards (registry restart) resync instead of
	// producing a negative latency.
	push(2, stepNS, 1)
	push(2, 2*stepNS, 2)
	if got := d.Stragglers(); len(got) != 1 || got[0] != 2 {
		t.Errorf("stragglers after resync = %v, want [2] still", got)
	}
}

// TestDetectorNeedsMinRanks: one rank alone can have no skew.
func TestDetectorNeedsMinRanks(t *testing.T) {
	d := New(nil, nil)
	for i := 0; i < 20; i++ {
		d.ObserveStep(0, time.Second)
	}
	if got := d.Stragglers(); len(got) != 0 {
		t.Errorf("single-rank stragglers = %v", got)
	}
	if d.Skew() != 0 {
		t.Errorf("single-rank skew = %g, want 0", d.Skew())
	}
}
