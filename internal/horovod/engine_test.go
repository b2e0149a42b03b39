package horovod

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"dnnperf/internal/mpi"
)

// fastCfg keeps test cycles snappy.
func fastCfg() Config {
	return Config{CycleTime: 200 * time.Microsecond}
}

// runEngines spins up an engine per rank and runs fn(rank, engine), then
// shuts everything down.
func runEngines(t *testing.T, n int, cfg Config, fn func(r int, e *Engine) error) []Stats {
	t.Helper()
	w, err := mpi.NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	stats := make([]Stats, n)
	err = w.Run(func(c *mpi.Comm) error {
		e := NewEngine(c, cfg)
		ferr := fn(c.Rank(), e)
		serr := e.Shutdown()
		stats[c.Rank()] = e.Stats()
		if ferr != nil {
			return ferr
		}
		return serr
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestAllreduceAveragesAcrossRanks(t *testing.T) {
	const n = 4
	cfg := fastCfg()
	cfg.Average = true
	runEngines(t, n, cfg, func(r int, e *Engine) error {
		data := []float32{float32(r), float32(2 * r)}
		if err := e.Allreduce("grad", data); err != nil {
			return err
		}
		// average of 0..3 = 1.5; average of 0,2,4,6 = 3
		if data[0] != 1.5 || data[1] != 3 {
			return fmt.Errorf("rank %d got %v", r, data)
		}
		return nil
	})
}

func TestSumWithoutAverage(t *testing.T) {
	const n = 3
	runEngines(t, n, fastCfg(), func(r int, e *Engine) error {
		data := []float32{1}
		if err := e.Allreduce("g", data); err != nil {
			return err
		}
		if data[0] != 3 {
			return fmt.Errorf("got %v", data[0])
		}
		return nil
	})
}

func TestFusionBatchesManyTensors(t *testing.T) {
	const n = 2
	const tensors = 32
	cfg := fastCfg()
	cfg.CycleTime = 5 * time.Millisecond // long cycle: everything fuses
	stats := runEngines(t, n, cfg, func(r int, e *Engine) error {
		var wg sync.WaitGroup
		wg.Add(tensors)
		errs := make([]error, tensors)
		for i := 0; i < tensors; i++ {
			data := []float32{float32(i)}
			i := i
			if err := e.AllreduceAsync(fmt.Sprintf("t%02d", i), data, func(err error) {
				errs[i] = err
				wg.Done()
			}); err != nil {
				return err
			}
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	for r, s := range stats {
		if s.FrameworkRequests != tensors {
			t.Fatalf("rank %d FrameworkRequests = %d", r, s.FrameworkRequests)
		}
		if s.EngineAllreduces >= tensors/2 {
			t.Fatalf("rank %d: expected fusion to cut engine allreduces well below %d, got %d",
				r, tensors, s.EngineAllreduces)
		}
		if s.MaxFusedTensors < 2 {
			t.Fatalf("rank %d: MaxFusedTensors = %d", r, s.MaxFusedTensors)
		}
	}
}

func TestFusionThresholdSplitsBatches(t *testing.T) {
	const n = 2
	cfg := fastCfg()
	cfg.CycleTime = 5 * time.Millisecond
	cfg.FusionThreshold = 40 // 10 float32s per batch
	stats := runEngines(t, n, cfg, func(r int, e *Engine) error {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			data := make([]float32, 8) // 32 bytes each
			if err := e.AllreduceAsync(fmt.Sprintf("t%d", i), data, func(error) { wg.Done() }); err != nil {
				return err
			}
		}
		wg.Wait()
		return nil
	})
	// 8 tensors x 32B with a 40B budget: one per batch (the second would
	// exceed the threshold), so at least 8 engine allreduces.
	if stats[0].EngineAllreduces < 8 {
		t.Fatalf("EngineAllreduces = %d, want >= 8", stats[0].EngineAllreduces)
	}
}

// The paper's central profiling observation: longer HOROVOD_CYCLE_TIME
// means fewer engine allreduces for the same framework request stream.
func TestCycleTimeReducesEngineAllreduces(t *testing.T) {
	const n = 2
	const tensors = 24
	run := func(cycle time.Duration) int64 {
		cfg := Config{CycleTime: cycle}
		stats := runEngines(t, n, cfg, func(r int, e *Engine) error {
			var wg sync.WaitGroup
			for i := 0; i < tensors; i++ {
				wg.Add(1)
				data := []float32{1}
				if err := e.AllreduceAsync(fmt.Sprintf("t%02d", i), data, func(error) { wg.Done() }); err != nil {
					return err
				}
				time.Sleep(150 * time.Microsecond) // gradients trickle in
			}
			wg.Wait()
			return nil
		})
		return stats[0].EngineAllreduces
	}
	short := run(50 * time.Microsecond)
	long := run(8 * time.Millisecond)
	if long >= short {
		t.Fatalf("longer cycle must reduce engine allreduces: short=%d long=%d", short, long)
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	runEngines(t, 2, fastCfg(), func(r int, e *Engine) error {
		done := make(chan error, 2)
		if err := e.AllreduceAsync("dup", []float32{1}, func(err error) { done <- err }); err != nil {
			return err
		}
		err := e.AllreduceAsync("dup", []float32{1}, func(err error) { done <- err })
		if err == nil {
			// Could legally succeed if the first already completed; then the
			// second must also complete.
			<-done
			<-done
			return nil
		}
		if <-done != nil {
			return fmt.Errorf("first tensor failed")
		}
		return nil
	})
}

func TestSizeMismatchAcrossRanksFails(t *testing.T) {
	w, _ := mpi.NewWorld(2)
	err := w.Run(func(c *mpi.Comm) error {
		e := NewEngine(c, fastCfg())
		size := 4
		if c.Rank() == 1 {
			size = 8 // mismatched payload
		}
		err := e.Allreduce("g", make([]float32, size))
		if err == nil {
			return fmt.Errorf("rank %d: expected size-mismatch failure", c.Rank())
		}
		e.Shutdown()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubmitAfterShutdownRejected(t *testing.T) {
	runEngines(t, 2, fastCfg(), func(r int, e *Engine) error {
		return nil // shut down immediately
	})
	// Engine from a fresh world, shut down, then submit.
	w, _ := mpi.NewWorld(1)
	e := NewEngine(w.Comm(0), fastCfg())
	if err := e.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := e.AllreduceAsync("late", []float32{1}, func(error) {}); err == nil {
		t.Fatal("submit after shutdown must be rejected")
	}
}

func TestStatsAccumulateAcrossSteps(t *testing.T) {
	const steps = 5
	stats := runEngines(t, 2, fastCfg(), func(r int, e *Engine) error {
		for s := 0; s < steps; s++ {
			if err := e.Allreduce(fmt.Sprintf("g-step%d", s), []float32{1}); err != nil {
				return err
			}
		}
		return nil
	})
	for r, s := range stats {
		if s.FrameworkRequests != steps {
			t.Fatalf("rank %d FrameworkRequests = %d, want %d", r, s.FrameworkRequests, steps)
		}
		if s.EngineAllreduces < 1 || s.EngineAllreduces > steps {
			t.Fatalf("rank %d EngineAllreduces = %d", r, s.EngineAllreduces)
		}
		if s.Cycles < s.EngineAllreduces {
			t.Fatalf("rank %d cycles %d < engine allreduces %d", r, s.Cycles, s.EngineAllreduces)
		}
		if s.FusedBytes != 4*steps {
			t.Fatalf("rank %d FusedBytes = %d", r, s.FusedBytes)
		}
	}
}

func TestReadinessCodecRoundTrip(t *testing.T) {
	f := func(down bool, seed int64) bool {
		n := int(uint64(seed)%7) + 1
		names := make([]string, n)
		sizes := make([]int, n)
		for i := range names {
			names[i] = fmt.Sprintf("tensor/%d/%d", seed, i)
			sizes[i] = int(uint64(seed+int64(i)) % 100000)
		}
		var bits []byte
		bits = setBit(bits, uint32(uint64(seed)%64))
		growEpoch := int32(-1)
		growStep := int64(0)
		if seed%2 == 0 {
			growEpoch = int32(uint64(seed) % 4096)
			growStep = int64(uint64(seed) % 1000)
		}
		d2, ge2, gs2, b2, n2, s2, err := decodeReadiness(encodeReadiness(down, growEpoch, growStep, bits, names, sizes))
		if err != nil || d2 != down || ge2 != growEpoch || len(n2) != n {
			return false
		}
		if growEpoch >= 0 && gs2 != growStep {
			return false
		}
		hit := false
		forEachBit(b2, func(id uint32) {
			if id == uint32(uint64(seed)%64) {
				hit = true
			}
		})
		if !hit {
			return false
		}
		for i := range names {
			if n2[i] != names[i] || s2[i] != sizes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadinessCodecTruncation(t *testing.T) {
	msg := encodeReadiness(false, -1, 0, []byte{0xff}, []string{"abc"}, []int{10})
	for cut := 0; cut < len(msg); cut++ {
		if _, _, _, _, _, _, err := decodeReadiness(msg[:cut]); err == nil && cut < len(msg) {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	// Truncating inside the grow-directive fields must also be detected.
	msg = encodeReadiness(true, 5, 42, []byte{0x01}, nil, nil)
	for cut := 0; cut < len(msg); cut++ {
		if _, _, _, _, _, _, err := decodeReadiness(msg[:cut]); err == nil && cut < len(msg) {
			t.Fatalf("grow truncation at %d not detected", cut)
		}
	}
}

// TestGrowDirectivePropagates: a directive announced by one rank reaches
// every rank through the shared negotiation within a few idle cycles — the
// in-band control path the elastic regrow relies on.
func TestGrowDirectivePropagates(t *testing.T) {
	const n = 3
	runEngines(t, n, fastCfg(), func(r int, e *Engine) error {
		if _, _, ok := e.GrowDirective(); ok {
			return fmt.Errorf("rank %d: directive before any announcement", r)
		}
		if r == 0 {
			e.AnnounceGrow(4, 9)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			if epoch, step, ok := e.GrowDirective(); ok {
				if epoch != 4 || step != 9 {
					return fmt.Errorf("rank %d: directive = (%d,%d), want (4,9)", r, epoch, step)
				}
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("rank %d: grow directive never arrived", r)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

func TestBitsetHelpers(t *testing.T) {
	var bits []byte
	for _, id := range []uint32{0, 7, 8, 63, 100} {
		bits = setBit(bits, id)
	}
	var got []uint32
	forEachBit(bits, func(id uint32) { got = append(got, id) })
	want := []uint32{0, 7, 8, 63, 100}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

// TestResponseCacheReducesControlBytes pins the cache's purpose: with
// stable tensor names, later steps announce by bitset and the control
// plane shrinks.
func TestResponseCacheReducesControlBytes(t *testing.T) {
	const steps = 6
	stats := runEngines(t, 2, fastCfg(), func(r int, e *Engine) error {
		for s := 0; s < steps; s++ {
			// Stable names across steps, as real frameworks use.
			for _, name := range []string{"layer1/weight", "layer2/weight", "layer3/bias"} {
				if err := e.Allreduce(name, []float32{1, 2, 3}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	for r, s := range stats {
		if s.CachedAnnouncements == 0 {
			t.Fatalf("rank %d: no cached announcements", r)
		}
		if s.NamedAnnouncements == 0 {
			t.Fatalf("rank %d: first step should announce by name", r)
		}
		if s.CachedAnnouncements < s.NamedAnnouncements {
			t.Fatalf("rank %d: cache hits (%d) should dominate names (%d) over %d steps",
				r, s.CachedAnnouncements, s.NamedAnnouncements, steps)
		}
		if s.ControlBytes <= 0 {
			t.Fatalf("rank %d: control bytes not counted", r)
		}
	}
}

// Property: fused allreduce result equals per-tensor serial sums for random
// tensor sets.
func TestQuickFusedEqualsSerial(t *testing.T) {
	f := func(seed int64) bool {
		n := int(uint64(seed)%3) + 2 // 2..4 ranks
		nt := int(uint64(seed>>8)%5) + 1
		w, _ := mpi.NewWorld(n)
		lens := make([]int, nt)
		for i := range lens {
			lens[i] = int(uint64(seed>>(4*i))%17) + 1
		}
		ok := true
		var mu sync.Mutex
		err := w.Run(func(c *mpi.Comm) error {
			e := NewEngine(c, Config{CycleTime: time.Millisecond})
			defer e.Shutdown()
			var wg sync.WaitGroup
			results := make([][]float32, nt)
			for i := 0; i < nt; i++ {
				wg.Add(1)
				data := make([]float32, lens[i])
				for j := range data {
					data[j] = float32(c.Rank()*100 + i*10 + j)
				}
				results[i] = data
				if err := e.AllreduceAsync(fmt.Sprintf("t%d", i), data, func(error) { wg.Done() }); err != nil {
					return err
				}
			}
			wg.Wait()
			for i, data := range results {
				for j, v := range data {
					// sum over ranks r of (100r + 10i + j)
					want := float32(100*(n*(n-1)/2) + n*(10*i+j))
					if v != want {
						mu.Lock()
						ok = false
						mu.Unlock()
					}
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineOverTCPTransport(t *testing.T) {
	comms, err := mpi.StartLocalTCPJob(3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			e := NewEngine(comms[r], Config{CycleTime: time.Millisecond, Average: true})
			data := []float32{float32(r + 1)}
			if err := e.Allreduce("g", data); err != nil {
				errs[r] = err
				return
			}
			if data[0] != 2 { // (1+2+3)/3
				errs[r] = fmt.Errorf("got %v", data[0])
			}
			errs[r] = e.Shutdown()
		}(r)
	}
	wg.Wait()
	for r, c := range comms {
		c.Close()
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
	}
}

// TestFusedBatchMatchesConcatenatedRing pins the in-place fused allreduce
// to the reference it replaced: concatenate the batch in negotiated
// (sorted-name) order, AllreduceRing the concatenation, scale by 1/size.
// Arbitrary floats at 3 ranks make the ring's summation order visible, so
// the comparison is bit for bit.
func TestFusedBatchMatchesConcatenatedRing(t *testing.T) {
	const n = 3
	names := []string{"w3", "w0", "w4", "w1", "w2"} // submission order
	lens := map[string]int{"w0": 37, "w1": 0, "w2": 200, "w3": 1, "w4": 129}
	sorted := []string{"w0", "w1", "w2", "w3", "w4"}
	input := func(r int, name string) []float32 {
		rng := rand.New(rand.NewSource(int64(100*r + len(name) + lens[name])))
		out := make([]float32, lens[name])
		for i := range out {
			out[i] = float32(rng.NormFloat64())
		}
		return out
	}

	// Reference: the concatenation through the single-buffer ring.
	want := make([][]float32, n)
	w, err := mpi.NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(c *mpi.Comm) error {
		c.SetSegmentBytes(256)
		var cat []float32
		for _, name := range sorted {
			cat = append(cat, input(c.Rank(), name)...)
		}
		if err := c.AllreduceRing(cat, mpi.OpSum); err != nil {
			return err
		}
		for i := range cat {
			cat[i] *= 1 / float32(n)
		}
		want[c.Rank()] = cat
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Every rank submits all tensors well inside the first cycle, so the
	// whole set is negotiated, and fused, as one batch.
	var ready sync.WaitGroup
	ready.Add(n)
	// The communicator carries the segment size, so it is set before the
	// engine's loop starts using it.
	cfg := Config{CycleTime: 50 * time.Millisecond, Average: true}
	stats := make([]Stats, n)
	fw, err := mpi.NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Run(func(c *mpi.Comm) (err error) {
		c.SetSegmentBytes(256)
		r, e := c.Rank(), NewEngine(c, cfg)
		defer func() {
			if serr := e.Shutdown(); err == nil {
				err = serr
			}
			stats[r] = e.Stats()
		}()
		data := map[string][]float32{}
		for _, name := range names {
			data[name] = input(r, name)
		}
		ready.Done()
		ready.Wait()
		var wg sync.WaitGroup
		errs := make([]error, len(names))
		for i, name := range names {
			wg.Add(1)
			if err := e.AllreduceAsync(name, data[name], func(err error) { errs[i] = err; wg.Done() }); err != nil {
				return err
			}
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		var got []float32
		for _, name := range sorted {
			got = append(got, data[name]...)
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[r][i]) {
				return fmt.Errorf("rank %d elem %d: fused %v, reference %v", r, i, got[i], want[r][i])
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for r, s := range stats {
		if s.MaxFusedTensors != len(names) {
			t.Fatalf("rank %d: batch split (MaxFusedTensors %d), the comparison needs one fused batch", r, s.MaxFusedTensors)
		}
	}
}
