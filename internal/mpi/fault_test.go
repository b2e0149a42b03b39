package mpi

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// faultWorld builds an n-rank in-process job with a Recv deadline and a
// FaultTransport per rank; mutate lets the test partition or reconfigure
// individual ranks before use.
func faultWorld(t *testing.T, n int, cfg FaultConfig, recvTimeout time.Duration) ([]*Comm, []*FaultTransport) {
	t.Helper()
	w, err := NewWorldOpts(n, WorldOptions{RecvTimeout: recvTimeout})
	if err != nil {
		t.Fatal(err)
	}
	comms := make([]*Comm, n)
	faults := make([]*FaultTransport, n)
	for r := 0; r < n; r++ {
		faults[r] = NewFaultTransport(w.Comm(r).Endpoint(), cfg)
		comms[r] = NewComm(faults[r])
	}
	return comms, faults
}

// An inproc Recv with nobody sending must resolve to a typed timeout.
func TestInprocRecvTimeout(t *testing.T) {
	w, err := NewWorldOpts(2, WorldOptions{RecvTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, rerr := w.Comm(1).Recv(0, 3)
	pe, ok := AsPeerError(rerr)
	if !ok || pe.Rank != 0 || !pe.Timeout() {
		t.Fatalf("want typed timeout from rank 0, got %v", rerr)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout fired far past the deadline")
	}
}

// A partition is observed by the far side as a Recv deadline expiry with
// the partitioned peer's rank — the typed form the Horovod engine and
// collectives propagate.
func TestFaultPartitionYieldsTypedTimeout(t *testing.T) {
	comms, faults := faultWorld(t, 2, FaultConfig{}, 80*time.Millisecond)
	faults[0].Partition(1)

	if err := comms[0].Send(1, 9, []byte{1}); err != nil {
		t.Fatalf("partitioned send must drop silently, got %v", err)
	}
	_, err := comms[1].Recv(0, 9)
	pe, ok := AsPeerError(err)
	if !ok || pe.Rank != 0 || pe.Op != OpRecv || !pe.Timeout() {
		t.Fatalf("want typed timeout from rank 0, got %v", err)
	}
	if got := faults[0].Stats().Blocked; got != 1 {
		t.Fatalf("Blocked = %d, want 1", got)
	}

	// Heal and verify traffic flows again.
	faults[0].Heal(1)
	if err := comms[0].Send(1, 10, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if b, err := comms[1].Recv(0, 10); err != nil || len(b) != 1 {
		t.Fatalf("post-heal recv: %v %v", b, err)
	}
}

// A partition inside a collective: every rank resolves to an error (typed
// on the ranks that observe the cut) instead of deadlocking the ring.
func TestFaultPartitionFailsAllreduce(t *testing.T) {
	const n = 4
	comms, faults := faultWorld(t, n, FaultConfig{}, 150*time.Millisecond)
	faults[0].Partition(1) // sever the ring between 0 and 1

	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]float32, 64)
			errs[r] = comms[r].AllreduceRing(buf, OpSum)
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("partitioned allreduce deadlocked")
	}
	typed := 0
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d completed an allreduce across a partition", r)
		}
		if _, ok := AsPeerError(err); ok {
			typed++
		}
	}
	if typed != n {
		t.Fatalf("only %d/%d ranks saw a typed PeerError", typed, n)
	}
}

// Same seed, same rank, same config: the injected fault sequence is
// identical — the property that makes failure tests reproducible.
func TestFaultInjectionDeterministic(t *testing.T) {
	run := func() (FaultStats, []int) {
		w, _ := NewWorldOpts(2, WorldOptions{RecvTimeout: time.Second})
		ft := NewFaultTransport(w.Comm(0).Endpoint(), FaultConfig{Seed: 42, DropProb: 0.5})
		var droppedAt []int
		for i := 0; i < 64; i++ {
			before := ft.Stats().Dropped
			if err := ft.Send(1, uint32(i), Msg{Buf: []byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
			if ft.Stats().Dropped > before {
				droppedAt = append(droppedAt, i)
			}
		}
		return ft.Stats(), droppedAt
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	if s1.Dropped == 0 || s1.Sent == 0 {
		t.Fatalf("expected both drops and deliveries at p=0.5, got %+v", s1)
	}
	if fmt.Sprint(d1) != fmt.Sprint(d2) {
		t.Fatalf("drop positions diverged: %v vs %v", d1, d2)
	}
}

// Delayed sends still deliver, after the configured latency.
func TestFaultDelayDelivers(t *testing.T) {
	comms, faults := faultWorld(t, 2, FaultConfig{DelayProb: 1, Delay: 30 * time.Millisecond}, time.Second)
	start := time.Now()
	if err := comms[0].Send(1, 1, []byte{9}); err != nil {
		t.Fatal(err)
	}
	b, err := comms[1].Recv(0, 1)
	if err != nil || len(b) != 1 || b[0] != 9 {
		t.Fatalf("delayed frame corrupted: %v %v", b, err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("delay not applied: %v", elapsed)
	}
	if got := faults[0].Stats().Delayed; got != 1 {
		t.Fatalf("Delayed = %d, want 1", got)
	}
}

// Duplicated frames are absorbed by the out-of-tag queue within one
// collective: a full ring allreduce under 100% duplication still produces
// the exact sums.
func TestFaultDuplicatesAbsorbedByTagQueue(t *testing.T) {
	const n = 3
	comms, faults := faultWorld(t, n, FaultConfig{Seed: 7, DupProb: 1}, time.Second)
	errs := make([]error, n)
	bufs := make([][]float32, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]float32, 50)
			for i := range buf {
				buf[i] = float32(r)
			}
			bufs[r] = buf
			errs[r] = comms[r].AllreduceRing(buf, OpSum)
		}(r)
	}
	wg.Wait()
	want := float32(n * (n - 1) / 2)
	for r := 0; r < n; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		for i, v := range bufs[r] {
			if v != want {
				t.Fatalf("rank %d elem %d: got %v want %v", r, i, v, want)
			}
		}
		if faults[r].Stats().Duplicated == 0 {
			t.Fatalf("rank %d injected no duplicates", r)
		}
	}
}

// FaultTransport composes with the TCP transport the same way it does with
// inproc: a partition over real sockets resolves to a typed timeout.
func TestFaultTransportOverTCP(t *testing.T) {
	raw, err := StartLocalTCPJobOpts(2, fastTCPOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range raw {
			c.Close()
		}
	}()
	ft0 := NewFaultTransport(raw[0].Endpoint(), FaultConfig{})
	ft0.Partition(1)
	c0, c1 := NewComm(ft0), NewComm(NewFaultTransport(raw[1].Endpoint(), FaultConfig{}))

	if err := c0.Send(1, 2, []byte{1}); err != nil {
		t.Fatalf("partitioned send: %v", err)
	}
	_, rerr := c1.Recv(0, 2)
	pe, ok := AsPeerError(rerr)
	if !ok || pe.Rank != 0 || !pe.Timeout() {
		t.Fatalf("want typed timeout over TCP, got %v", rerr)
	}
}

// Abort through a FaultTransport reaches the inner endpoint's abrupt path.
func TestFaultTransportForwardsAbort(t *testing.T) {
	raw, err := StartLocalTCPJobOpts(2, fastTCPOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer raw[1].Close()
	NewComm(NewFaultTransport(raw[0].Endpoint(), FaultConfig{})).Abort()
	_, rerr := raw[1].Recv(0, 1)
	pe, ok := AsPeerError(rerr)
	if !ok || pe.Rank != 0 {
		t.Fatalf("want typed error after abort, got %v", rerr)
	}
	if errors.Is(pe.Err, ErrPeerClosed) {
		t.Fatal("abort must not look like a graceful goodbye")
	}
}

// SetConfig (scenario `set_faults`) may swap the template while a sender is
// mid-Send: the delay a send sleeps must come from the same locked snapshot
// as its draw, not from a second unlocked read of the config. Run under
// -race, which flagged exactly that read.
func TestFaultSetConfigDuringDelayedSends(t *testing.T) {
	const sends = 200
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	ft := NewFaultTransport(w.Comm(0).Endpoint(), FaultConfig{Seed: 1, DelayProb: 1, Delay: time.Microsecond})
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		for i := 0; i < sends; i++ {
			ft.SetConfig(FaultConfig{Seed: 1, DelayProb: 1, Delay: time.Duration(1+i%3) * time.Microsecond})
		}
	}()
	for i := 0; i < sends; i++ {
		if err := ft.Send(1, uint32(i), Msg{Buf: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	<-swapped
	if got := ft.Stats().Delayed; got != sends {
		t.Fatalf("Delayed = %d, want %d", got, sends)
	}
}
