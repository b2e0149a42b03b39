package telemetry

import (
	"bytes"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := New()
	c := r.Counter("x.count")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("x.count"); again != c {
		t.Fatal("Counter is not idempotent per name")
	}
	g := r.Gauge("x.gauge")
	g.Set(2.5)
	g.SetMax(1.0) // lower: no effect
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", g.Value())
	}
	g.SetMax(7)
	if g.Value() != 7 {
		t.Fatalf("gauge after SetMax = %v, want 7", g.Value())
	}
	h := r.Histogram("x.hist", []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	if h.Count() != 3 || h.Sum() != 555 {
		t.Fatalf("hist count=%d sum=%d", h.Count(), h.Sum())
	}
	hs := h.snapshot()
	want := []int64{1, 1, 1}
	for i, c := range hs.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
}

func TestLabelsMakeDistinctHandles(t *testing.T) {
	r := New()
	a := r.Counter("mpi.allreduce", L("alg", "ring"))
	b := r.Counter("mpi.allreduce", L("alg", "recursive_doubling"))
	if a == b {
		t.Fatal("different labels must yield different handles")
	}
	a.Inc()
	snap := r.Snapshot()
	if snap.Counters["mpi.allreduce{alg=ring}"] != 1 {
		t.Fatalf("labeled counter missing from snapshot: %v", snap.Counters)
	}
	// Label order must not matter.
	x := r.Counter("m", L("a", "1"), L("b", "2"))
	y := r.Counter("m", L("b", "2"), L("a", "1"))
	if x != y {
		t.Fatal("label order must not change identity")
	}
}

func TestNilRegistryHandsOutWorkingHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("detached")
	c.Add(3)
	if c.Value() != 3 {
		t.Fatal("detached counter must still count")
	}
	r.Gauge("g").Set(1)
	r.Histogram("h", CountBuckets).Observe(2)
	if snap := r.Snapshot(); len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestSnapshotEncodeDecodeMerge(t *testing.T) {
	r0, r1 := New(), New()
	r0.Counter("horovod.engine_allreduces").Add(10)
	r1.Counter("horovod.engine_allreduces").Add(12)
	r0.Gauge("train.loss").Set(0.5)

	s0 := r0.Snapshot()
	s0.Rank = 0
	s1 := r1.Snapshot()
	s1.Rank = 1

	raw, err := Bundle{Snapshot: s1}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBundle(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Snapshot.Rank != 1 || back.Snapshot.Counters["horovod.engine_allreduces"] != 12 {
		t.Fatalf("roundtrip lost data: %+v", back)
	}

	merged := Merge([]Snapshot{s1, s0}) // out of order on purpose
	if merged.Ranks[0].Rank != 0 || merged.Ranks[1].Rank != 1 {
		t.Fatal("merge must sort by rank")
	}
	if merged.Totals["horovod.engine_allreduces"] != 22 {
		t.Fatalf("totals = %v", merged.Totals)
	}
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, []Snapshot{s0, s1}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"totals"`)) {
		t.Fatal("metrics document missing totals")
	}
}

func TestBundleRoundtrip(t *testing.T) {
	r := New()
	r.Counter("c").Inc()
	tr := NewTracer()
	tr.SetPID(3)
	sp := tr.Begin("step", "train", 0)
	sp.End()
	b := Bundle{Snapshot: r.Snapshot(), Events: tr.Events()}
	b.Snapshot.Rank = 3
	raw, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBundle(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Snapshot.Rank != 3 || len(back.Events) != 1 || back.Events[0].PID != 3 {
		t.Fatalf("bundle roundtrip: %+v", back)
	}
}

func TestConcurrentUpdatesAreRaceFree(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", CountBuckets)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.SetMax(float64(i))
				h.Observe(int64(i % 300))
				_ = r.Counter("c") // concurrent registration must be safe too
			}
		}()
	}
	for i := 0; i < 100; i++ {
		r.Snapshot() // concurrent snapshots must be safe
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("lost updates: %d", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("lost observations: %d", h.Count())
	}
}

// TestHotPathDoesNotAllocate pins the zero-alloc contract: updating
// pre-registered handles must not allocate, so always-on metrics cannot
// regress the arena work that made training steps allocation-free.
func TestHotPathDoesNotAllocate(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", DurationBuckets)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1.5)
		g.SetMax(2.5)
		h.Observe(12345)
	}); n != 0 {
		t.Fatalf("hot path allocates %v allocs/op, want 0", n)
	}
}
