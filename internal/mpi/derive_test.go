package mpi

import (
	"sync"
	"testing"
	"time"
)

// TestSplitDerivedCommInheritsTuning pins the documented derive behavior:
// a Split sub-communicator preserves the parent's comm-level allreduce
// algorithm and ring segment size, but not its telemetry registry.
func TestSplitDerivedCommInheritsTuning(t *testing.T) {
	const ranks = 4
	w, err := NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	subs := make([]*Comm, ranks)
	err = w.Run(func(c *Comm) error {
		if err := c.SetAllreduceAlg(AlgRing); err != nil {
			return err
		}
		c.SetSegmentBytes(4096)
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		mu.Lock()
		subs[c.Rank()] = sub
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, sub := range subs {
		if sub == nil {
			t.Fatalf("rank %d: no sub-communicator", r)
		}
		if got := sub.AllreduceAlgorithm(); got != AlgRing {
			t.Errorf("rank %d: derived alg %v, want %v", r, got, AlgRing)
		}
		if got := sub.SegmentBytes(); got != 4096 {
			t.Errorf("rank %d: derived segment %d, want 4096", r, got)
		}
		if sub.tele != nil {
			t.Errorf("rank %d: derived comm inherited telemetry", r)
		}
	}
}

// TestShrinkDerivedCommInheritsTuning pins the same contract through the
// survivor-agreement path: the shrunk communicator keeps the dead job's
// algorithm and segment tuning.
func TestShrinkDerivedCommInheritsTuning(t *testing.T) {
	const ranks = 3
	w, err := NewWorldOpts(ranks, WorldOptions{RecvTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	shrunk := make([]*Comm, ranks)
	var wg sync.WaitGroup
	errs := make([]error, ranks)
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Comm(r)
			if errs[r] = c.SetAllreduceAlg(AlgRing); errs[r] != nil {
				return
			}
			c.SetSegmentBytes(8192)
			if r == 2 {
				c.Close() // the casualty: survivors agree on {0, 1}
				return
			}
			sub, _, err := c.Shrink([]int{2}, ShrinkOptions{Epoch: 1})
			if err != nil {
				errs[r] = err
				return
			}
			mu.Lock()
			shrunk[r] = sub
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	for r := 0; r < 2; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		sub := shrunk[r]
		if sub == nil {
			t.Fatalf("rank %d: no shrunk communicator", r)
		}
		if got := sub.AllreduceAlgorithm(); got != AlgRing {
			t.Errorf("rank %d: shrunk alg %v, want %v", r, got, AlgRing)
		}
		if got := sub.SegmentBytes(); got != 8192 {
			t.Errorf("rank %d: shrunk segment %d, want 8192", r, got)
		}
	}
}

// TestGrowAndRejoinDerivedCommsInheritTuning pins the contract through
// regrow: a member's grown communicator keeps its shrunk parent's tuning,
// and a joiner's keeps that of the root communicator it rejoined through.
// The communicator is the only carrier of the segment size, so a regrown
// world must not fall back to the default.
func TestGrowAndRejoinDerivedCommsInheritTuning(t *testing.T) {
	w, err := NewWorldOpts(3, WorldOptions{RecvTimeout: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	tune := func(c *Comm) *Comm {
		if err := c.SetAllreduceAlg(AlgRing); err != nil {
			t.Fatal(err)
		}
		c.SetSegmentBytes(4096)
		return c
	}
	origin := map[int]*Comm{0: tune(w.Comm(0)), 1: tune(w.Comm(1))}
	jl, err := ListenJoins(origin[0])
	if err != nil {
		t.Fatal(err)
	}
	shrunk := make(map[int]*Comm)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for r, c := range origin {
		wg.Add(1)
		go func(r int, c *Comm) {
			defer wg.Done()
			nc, _, err := c.Shrink([]int{2}, ShrinkOptions{Epoch: 0})
			if err != nil {
				t.Errorf("rank %d: shrink: %v", r, err)
			}
			mu.Lock()
			shrunk[r] = nc
			mu.Unlock()
		}(r, c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	c2 := tune(w.Rejoin(2))
	type joined struct {
		c   *Comm
		err error
	}
	joinCh := make(chan joined, 1)
	go func() {
		nc, _, _, err := Rejoin(c2, RejoinOptions{Epoch: -1, Seed: 7, Timeout: 5 * time.Second})
		joinCh <- joined{c: nc, err: err}
	}()
	reqs := drainUntil(t, jl, 1, shrunk[0].RootMembers(), 2*time.Second)
	grown, gerrs := growAll(t, shrunk, 0, reqs, GrowOptions{Epoch: 1})
	for r, err := range gerrs {
		if err != nil {
			t.Fatalf("rank %d: grow: %v", r, err)
		}
	}
	j := <-joinCh
	if j.err != nil {
		t.Fatalf("rejoin: %v", j.err)
	}
	for r, c := range map[int]*Comm{0: grown[0], 1: grown[1], 2: j.c} {
		if c.Size() != 3 {
			t.Fatalf("root %d: grown comm size %d, want 3", r, c.Size())
		}
		if got := c.AllreduceAlgorithm(); got != AlgRing {
			t.Errorf("root %d: grown alg %v, want %v", r, got, AlgRing)
		}
		if got := c.SegmentBytes(); got != 4096 {
			t.Errorf("root %d: grown segment %d, want 4096", r, got)
		}
	}
}

// TestShrinkDemotesRecursiveDoublingOnNonPow2 pins the derive exception: a
// recursive-doubling parent shrinking to a non-power-of-two survivor set
// falls back to AlgAuto instead of inheriting an algorithm every Allreduce
// would reject.
func TestShrinkDemotesRecursiveDoublingOnNonPow2(t *testing.T) {
	const ranks = 4
	w, err := NewWorldOpts(ranks, WorldOptions{RecvTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	shrunk := make([]*Comm, ranks)
	var wg sync.WaitGroup
	errs := make([]error, ranks)
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Comm(r)
			if errs[r] = c.SetAllreduceAlg(AlgRecursiveDoubling); errs[r] != nil {
				return
			}
			if r == 3 {
				c.Close()
				return
			}
			sub, _, err := c.Shrink([]int{3}, ShrinkOptions{Epoch: 1})
			if err != nil {
				errs[r] = err
				return
			}
			mu.Lock()
			shrunk[r] = sub
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	for r := 0; r < 3; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if got := shrunk[r].AllreduceAlgorithm(); got != AlgAuto {
			t.Errorf("rank %d: 3-rank shrunk comm alg %v, want AlgAuto", r, got)
		}
	}
	// One collective on the shrunk world proves the demoted algorithm runs.
	var cwg sync.WaitGroup
	sums := make([][]float32, 3)
	cerrs := make([]error, 3)
	for r := 0; r < 3; r++ {
		cwg.Add(1)
		go func(r int) {
			defer cwg.Done()
			buf := []float32{float32(shrunk[r].Rank() + 1)}
			cerrs[r] = shrunk[r].Allreduce(buf, OpSum)
			sums[r] = buf
		}(r)
	}
	cwg.Wait()
	for r := 0; r < 3; r++ {
		if cerrs[r] != nil {
			t.Fatalf("rank %d: allreduce on shrunk comm: %v", r, cerrs[r])
		}
		if sums[r][0] != 6 {
			t.Errorf("rank %d: allreduce sum %v, want 6", r, sums[r][0])
		}
	}
}
