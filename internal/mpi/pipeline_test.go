package mpi

import (
	"fmt"
	"sync"
	"testing"
)

// Tests for the chunked, pipelined ring allreduce and the pooled frame
// buffers underneath it. Inputs are integer-valued floats so the reduction
// is exact regardless of segment boundaries or accumulation grouping, and
// results are checked against a naively computed reference.

// refSum returns the exact expected allreduce-sum result for the canonical
// test fill: rank r contributes float32((r+1)*(i%7+1)) at element i.
func refSum(ranks, elems int) []float32 {
	want := make([]float32, elems)
	for i := range want {
		for r := 0; r < ranks; r++ {
			want[i] += float32((r + 1) * (i%7 + 1))
		}
	}
	return want
}

func fillRank(buf []float32, r int) {
	for i := range buf {
		buf[i] = float32((r + 1) * (i%7 + 1))
	}
}

// TestRingAllreducePipelined sweeps the schedule's edge cases: odd rank
// counts, element counts that do not divide by the rank count (uneven
// chunks, including empty ones), and segment sizes from the 256-byte clamp
// floor to far beyond the whole buffer.
func TestRingAllreducePipelined(t *testing.T) {
	for _, ranks := range []int{1, 2, 3, 5, 7, 8} {
		for _, elems := range []int{0, 1, 5, 63, 1023, 4097} {
			for _, segBytes := range []int{256, 1024, DefaultSegmentBytes, 1 << 26} {
				name := fmt.Sprintf("ranks=%d/elems=%d/seg=%d", ranks, elems, segBytes)
				t.Run(name, func(t *testing.T) {
					w, err := NewWorld(ranks)
					if err != nil {
						t.Fatal(err)
					}
					want := refSum(ranks, elems)
					err = w.Run(func(c *Comm) error {
						c.SetSegmentBytes(segBytes)
						buf := make([]float32, elems)
						fillRank(buf, c.Rank())
						if err := c.AllreduceRing(buf, OpSum); err != nil {
							return err
						}
						for i := range buf {
							if buf[i] != want[i] {
								return fmt.Errorf("rank %d elem %d: got %v want %v", c.Rank(), i, buf[i], want[i])
							}
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestRingAllreduceRepeatedOnOneComm reuses one communicator for many
// back-to-back rings (the engine's steady state): the per-comm pipeline
// scratch and cached bounds must reset cleanly between operations, and a
// buffer-size change must invalidate the cached bounds.
func TestRingAllreduceRepeatedOnOneComm(t *testing.T) {
	const ranks = 5
	w, err := NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		c.SetSegmentBytes(512)
		for iter, elems := range []int{1000, 1000, 37, 2048, 1} {
			buf := make([]float32, elems)
			fillRank(buf, c.Rank())
			if err := c.AllreduceRing(buf, OpSum); err != nil {
				return fmt.Errorf("iter %d: %w", iter, err)
			}
			want := refSum(ranks, elems)
			for i := range buf {
				if buf[i] != want[i] {
					return fmt.Errorf("iter %d rank %d elem %d: got %v want %v", iter, c.Rank(), i, buf[i], want[i])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRingAllreduceMaxWithPipeline checks a non-sum operator through the
// segmented in-place reduce.
func TestRingAllreduceMaxWithPipeline(t *testing.T) {
	const ranks, elems = 4, 777
	w, _ := NewWorld(ranks)
	err := w.Run(func(c *Comm) error {
		c.SetSegmentBytes(256)
		buf := make([]float32, elems)
		for i := range buf {
			buf[i] = float32((c.Rank()*7 + i) % 31)
		}
		if err := c.AllreduceRing(buf, OpMax); err != nil {
			return err
		}
		for i := range buf {
			var want float32
			for r := 0; r < ranks; r++ {
				v := float32((r*7 + i) % 31)
				if v > want {
					want = v
				}
			}
			if buf[i] != want {
				return fmt.Errorf("elem %d: got %v want %v", i, buf[i], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFramePoolClasses pins the size-class arithmetic: rounding to powers
// of two, the oversize fallthrough, and Put rejecting foreign buffers.
func TestFramePoolClasses(t *testing.T) {
	var p FramePool
	for _, n := range []int{0, 1, 255, 256, 257, 4096, 65536, 1 << 24} {
		b := p.Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d) len = %d", n, len(b))
		}
		if n > 0 && cap(b)&(cap(b)-1) != 0 {
			t.Fatalf("Get(%d) cap %d not a power of two", n, cap(b))
		}
		p.Put(b)
	}
	// Oversize requests are plain allocations and are not retained.
	big := p.Get(1<<24 + 1)
	if len(big) != 1<<24+1 {
		t.Fatalf("oversize len = %d", len(big))
	}
	p.Put(big)
	// Foreign odd-capacity buffers must be rejected, not poisoned into a class.
	p.Put(make([]byte, 300))
	got := p.Get(300)
	if cap(got) != 512 {
		t.Fatalf("pool retained a foreign 300-cap buffer: cap=%d", cap(got))
	}
	st := p.Stats()
	if st.Gets == 0 || st.Puts == 0 {
		t.Fatalf("stats not counting: %+v", st)
	}
}

// TestFramePoolReuse proves steady-state recycling: after a warm-up Get/Put
// cycle, cycles of the same class are mostly served without allocation. The
// bound is loose because sync.Pool sheds items on GC and intentionally drops
// a fraction of puts under the race detector.
func TestFramePoolReuse(t *testing.T) {
	var p FramePool
	p.Put(p.Get(1000))
	before := p.Stats()
	const cycles = 100
	for i := 0; i < cycles; i++ {
		p.Put(p.Get(1000))
	}
	after := p.Stats()
	if misses := after.Misses - before.Misses; misses > cycles/2 {
		t.Fatalf("%d pool misses across %d warm cycles", misses, cycles)
	}
}

// TestPooledFramesUnderConcurrentCollectivesAndSubscriptions is the race
// test for frame ownership: every rank runs back-to-back ring allreduces
// (pooled frames crossing rank boundaries via the zero-copy inproc path)
// while rank 0 holds a tag subscription that the other ranks flood with
// owned frames — subscribed deliveries keep their frames, dropped ones are
// abandoned to the GC, and neither may alias a frame a collective still
// owns. Run under -race (the CI smoke job does).
func TestPooledFramesUnderConcurrentCollectivesAndSubscriptions(t *testing.T) {
	const (
		ranks = 4
		elems = 2048
		iters = 30
		tag   = uint32(0x7e1)
	)
	w, err := NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	comms := make([]*Comm, ranks)
	for r := range comms {
		comms[r] = w.Comm(r)
		comms[r].SetSegmentBytes(1024)
	}
	sub, err := comms[0].Subscribe(tag, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Drain the subscription concurrently, touching every delivered byte so
	// the race detector sees any aliasing with collective frames.
	drained := make(chan int64)
	go func() {
		var sum int64
		for m := range sub {
			for _, b := range m.Payload {
				sum += int64(b)
			}
		}
		drained <- sum
	}()

	var wg sync.WaitGroup
	wg.Add(ranks)
	errs := make([]error, ranks)
	want := refSum(ranks, elems)
	for r := 0; r < ranks; r++ {
		go func(r int) {
			defer wg.Done()
			c := comms[r]
			buf := make([]float32, elems)
			for it := 0; it < iters; it++ {
				if r != 0 {
					// Flood the side channel with owned frames between
					// collectives.
					frame := c.FramePool().Get(128)
					for i := range frame {
						frame[i] = byte(i)
					}
					if err := c.send(0, tag, Msg{Buf: frame, Owned: true}); err != nil {
						errs[r] = err
						return
					}
				}
				fillRank(buf, r)
				if err := c.AllreduceRing(buf, OpSum); err != nil {
					errs[r] = err
					return
				}
				for i := range buf {
					if buf[i] != want[i] {
						errs[r] = fmt.Errorf("iter %d rank %d elem %d: got %v want %v", it, r, i, buf[i], want[i])
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	// Close the subscription's world-side senders are done; unsubscribe is
	// not supported, so just stop the drain by abandoning the channel after
	// confirming it saw traffic.
	select {
	case <-drained:
		t.Fatal("subscription channel closed unexpectedly")
	default:
	}
}

// TestRecursiveDoublingPooled re-checks recursive doubling (now on pooled
// frames) against the reference at a power-of-two size.
func TestRecursiveDoublingPooled(t *testing.T) {
	const ranks, elems = 8, 515
	w, _ := NewWorld(ranks)
	want := refSum(ranks, elems)
	err := w.Run(func(c *Comm) error {
		buf := make([]float32, elems)
		fillRank(buf, c.Rank())
		if err := c.AllreduceRecursiveDoubling(buf, OpSum); err != nil {
			return err
		}
		for i := range buf {
			if buf[i] != want[i] {
				return fmt.Errorf("rank %d elem %d: got %v want %v", c.Rank(), i, buf[i], want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
