package telemetry

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collectSink is a test sink recording every pushed bundle.
type collectSink struct {
	mu      sync.Mutex
	bundles []Bundle
}

func (cs *collectSink) push(b []byte) error {
	bun, err := DecodeBundle(b)
	if err != nil {
		return err
	}
	cs.mu.Lock()
	cs.bundles = append(cs.bundles, bun)
	cs.mu.Unlock()
	return nil
}

func (cs *collectSink) all() []Bundle {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return append([]Bundle(nil), cs.bundles...)
}

// slowInterval keeps the background ticker out of the way so tests drive
// Publish deterministically.
const slowInterval = time.Hour

// TestPublisherPushesSnapshotAndEventDeltas: each push carries the full
// current snapshot (rank-stamped) but only the trace events recorded since
// the previous push.
func TestPublisherPushesSnapshotAndEventDeltas(t *testing.T) {
	reg := New()
	tracer := NewTracer()
	c := reg.Counter("work.done")
	sink := &collectSink{}
	p := NewPublisher(reg, tracer, sink.push, PublisherOptions{Interval: slowInterval, Rank: 3})
	defer p.Stop()

	c.Add(5)
	tracer.Instant("ev1", "test", nil)
	if err := p.Publish(); err != nil {
		t.Fatal(err)
	}
	c.Add(2)
	if err := p.Publish(); err != nil {
		t.Fatal(err)
	}

	got := sink.all()
	if len(got) != 2 {
		t.Fatalf("%d bundles, want 2", len(got))
	}
	if got[0].Snapshot.Rank != 3 || got[1].Snapshot.Rank != 3 {
		t.Errorf("snapshots not rank-stamped: %d, %d", got[0].Snapshot.Rank, got[1].Snapshot.Rank)
	}
	if got[0].Snapshot.Counters["work.done"] != 5 {
		t.Errorf("first push counter = %d, want 5", got[0].Snapshot.Counters["work.done"])
	}
	if got[1].Snapshot.Counters["work.done"] != 7 {
		t.Errorf("second push counter = %d, want 7 (cumulative)", got[1].Snapshot.Counters["work.done"])
	}
	if len(got[0].Events) != 1 || got[0].Events[0].Name != "ev1" {
		t.Errorf("first push events = %+v, want [ev1]", got[0].Events)
	}
	if len(got[1].Events) != 0 {
		t.Errorf("second push repeated events: %+v (delta semantics broken)", got[1].Events)
	}
	if reg.Snapshot().Counters["telemetry.publishes"] != 2 {
		t.Errorf("telemetry.publishes = %d, want 2", reg.Snapshot().Counters["telemetry.publishes"])
	}
}

// TestPublisherCountsSinkErrors: a failing sink is counted, reported, and
// does not kill the publisher.
func TestPublisherCountsSinkErrors(t *testing.T) {
	reg := New()
	fail := errors.New("wire down")
	sink := &collectSink{}
	var down atomic.Bool
	down.Store(true)
	p := NewPublisher(reg, nil, func(b []byte) error {
		if down.Load() {
			return fail
		}
		return sink.push(b)
	}, PublisherOptions{Interval: slowInterval})
	defer p.Stop()
	if err := p.Publish(); !errors.Is(err, fail) {
		t.Fatalf("Publish err = %v, want %v", err, fail)
	}
	if got := reg.Snapshot().Counters["telemetry.publish_errors"]; got < 1 {
		t.Errorf("publish_errors = %d, want >= 1", got)
	}
	// Still alive: pushes succeed once the sink recovers.
	down.Store(false)
	if err := p.Publish(); err != nil {
		t.Fatalf("after the sink recovered: %v", err)
	}
	if len(sink.all()) != 1 {
		t.Errorf("recovered sink got %d bundles, want 1", len(sink.all()))
	}
}

// TestPublisherNilSinkPauses: a nil sink skips pushes without errors —
// there is nowhere to push.
func TestPublisherNilSinkPauses(t *testing.T) {
	reg := New()
	p := NewPublisher(reg, nil, nil, PublisherOptions{Interval: slowInterval})
	defer p.Stop()
	if err := p.Publish(); err != nil {
		t.Fatalf("nil sink Publish: %v", err)
	}
	if got := reg.Snapshot().Counters["telemetry.publish_errors"]; got != 0 {
		t.Errorf("nil sink counted as error: %d", got)
	}
}

// TestPublisherStopFlushesFinalBundle: Stop performs one last push so the
// server's view includes the run's end state; further Stops are no-ops.
func TestPublisherStopFlushesFinalBundle(t *testing.T) {
	reg := New()
	c := reg.Counter("final")
	sink := &collectSink{}
	p := NewPublisher(reg, nil, sink.push, PublisherOptions{Interval: slowInterval})
	c.Add(9)
	p.Stop()
	p.Stop() // idempotent
	got := sink.all()
	if len(got) != 1 {
		t.Fatalf("%d bundles after Stop, want exactly 1", len(got))
	}
	if got[0].Snapshot.Counters["final"] != 9 {
		t.Errorf("final bundle counter = %d, want 9", got[0].Snapshot.Counters["final"])
	}
	var nilPub *Publisher
	nilPub.Stop()
	if err := nilPub.Publish(); err != nil {
		t.Errorf("nil publisher Publish: %v", err)
	}
}

// TestPublisherTicker: the background loop publishes on its own at the
// configured interval.
func TestPublisherTicker(t *testing.T) {
	reg := New()
	sink := &collectSink{}
	p := NewPublisher(reg, nil, sink.push, PublisherOptions{Interval: 5 * time.Millisecond})
	defer p.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for len(sink.all()) < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if len(sink.all()) < 2 {
		t.Fatal("background publisher never ticked")
	}
}
