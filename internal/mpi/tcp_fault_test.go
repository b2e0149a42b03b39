package mpi

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// fastTCPOpts keeps failure-path tests snappy: short deadlines everywhere.
func fastTCPOpts() TCPOptions {
	return TCPOptions{
		RendezvousTimeout: 5 * time.Second,
		RecvTimeout:       400 * time.Millisecond,
		WriteTimeout:      2 * time.Second,
		DrainTimeout:      50 * time.Millisecond,
	}
}

// TestKilledRankMidAllreduce is the acceptance test for the robustness
// layer: one rank dies abruptly mid-allreduce, and every surviving rank's
// collective resolves to a typed *PeerError within the transport deadline —
// no hang, no deadlock.
func TestKilledRankMidAllreduce(t *testing.T) {
	comms, err := StartLocalTCPJobOpts(3, fastTCPOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()

	// Warm up: a clean allreduce across all three ranks.
	var wg sync.WaitGroup
	warm := make([]error, 3)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := []float32{float32(r), 1}
			warm[r] = comms[r].AllreduceRing(buf, OpSum)
		}(r)
	}
	wg.Wait()
	for r, err := range warm {
		if err != nil {
			t.Fatalf("warmup rank %d: %v", r, err)
		}
	}

	// Ranks 0 and 1 enter a second allreduce; rank 2 crashes instead.
	type res struct {
		rank int
		err  error
	}
	done := make(chan res, 2)
	for _, r := range []int{0, 1} {
		go func(r int) {
			buf := make([]float32, 300)
			done <- res{r, comms[r].AllreduceRing(buf, OpSum)}
		}(r)
	}
	time.Sleep(30 * time.Millisecond)
	comms[2].Abort()

	watchdog := time.After(5 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case r := <-done:
			if r.err == nil {
				t.Fatalf("rank %d: allreduce with a dead peer must fail", r.rank)
			}
			pe, ok := AsPeerError(r.err)
			if !ok {
				t.Fatalf("rank %d: want typed *PeerError, got %v", r.rank, r.err)
			}
			if pe.Rank == r.rank || pe.Rank < 0 || pe.Rank > 2 {
				t.Fatalf("rank %d: PeerError names implausible rank %d", r.rank, pe.Rank)
			}
		case <-watchdog:
			t.Fatal("surviving ranks hung past the deadline")
		}
	}
}

// Regression (bug 1, one-shot error channel): after a peer dies, EVERY
// subsequent Recv and Send against it must return the latched typed error.
// Pre-fix, the second Recv blocked forever on an empty error channel.
func TestSendRecvAfterPeerDeathLatched(t *testing.T) {
	comms, err := StartLocalTCPJobOpts(2, fastTCPOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer comms[1].Close()
	comms[0].Abort()

	start := time.Now()
	for i := 0; i < 3; i++ {
		_, err := comms[1].Recv(0, 1)
		pe, ok := AsPeerError(err)
		if !ok || pe.Rank != 0 {
			t.Fatalf("recv %d: want PeerError for rank 0, got %v", i, err)
		}
	}
	if err := comms[1].Send(0, 1, []byte{1}); err == nil {
		t.Fatal("send to dead peer must fail")
	}
	// All four calls must resolve via the latch, not by burning a full
	// Recv deadline each.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("latched errors took %v; repeated calls must not re-block", elapsed)
	}
}

// Regression (bug 2, tag mismatch dropped the payload): frames that arrive
// with a tag nobody has asked for yet are queued and delivered to their own
// Recv, in any order.
func TestTCPRecvQueuesOutOfTagFrames(t *testing.T) {
	comms, err := StartLocalTCPJobOpts(2, fastTCPOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	if err := comms[0].Send(1, 7, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := comms[0].Send(1, 9, []byte("second")); err != nil {
		t.Fatal(err)
	}
	// Ask for the later tag first: the tag-7 frame must be parked, not
	// dropped or fatal.
	b, err := comms[1].Recv(0, 9)
	if err != nil || string(b) != "second" {
		t.Fatalf("recv tag 9: %q %v", b, err)
	}
	b, err = comms[1].Recv(0, 7)
	if err != nil || string(b) != "first" {
		t.Fatalf("recv tag 7 (queued): %q %v", b, err)
	}
}

// Regression (bug 3, port TOCTOU): the rendezvous port is never released
// between reservation and rank 0 serving it — rank 0 adopts the live
// listener, so nothing else can bind the address while the job is up.
func TestLocalTCPJobHoldsRendezvousPort(t *testing.T) {
	comms, err := StartLocalTCPJobOpts(2, fastTCPOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	addr := comms[0].Endpoint().(*tcpEndpoint).listener.Addr().String()
	if ln, err := net.Listen("tcp", addr); err == nil {
		ln.Close()
		t.Fatalf("rendezvous address %s was observable free while the job is up", addr)
	}
}

// Regression (bug 3, companion): many concurrent local jobs. Pre-fix, the
// close-then-rebind window let jobs steal each other's rendezvous port and
// flake; with the live listener handed to rank 0 this is deterministic.
func TestConcurrentLocalTCPJobs(t *testing.T) {
	const jobs = 6
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			comms, err := StartLocalTCPJobOpts(2, fastTCPOpts())
			if err != nil {
				errs[j] = err
				return
			}
			var inner sync.WaitGroup
			jerrs := make([]error, len(comms))
			for r, c := range comms {
				inner.Add(1)
				go func(r int, c *Comm) {
					defer inner.Done()
					jerrs[r] = c.Barrier()
				}(r, c)
			}
			inner.Wait()
			for _, c := range comms {
				c.Close()
			}
			errs[j] = errors.Join(jerrs...)
		}(j)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", j, err)
		}
	}
}

// Regression (bug 4, duplicate mesh hello): a second hello claiming an
// already-connected rank must fail the bootstrap loudly instead of silently
// overwriting (and leaking) the first connection.
func TestMeshRejectsDuplicateHello(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rootAddr := ln.Addr().String()
	opts := TCPOptions{Listener: ln, RendezvousTimeout: 5 * time.Second, DrainTimeout: 50 * time.Millisecond}
	resCh := make(chan error, 1)
	go func() {
		_, err := DialTCPOpts(0, 3, rootAddr, "", opts)
		resCh <- err
	}()

	// Fake ranks 1 and 2 register (rendezvous phase). Rank 0 dials nobody,
	// so dummy listener addresses are fine. Both registrations go out
	// before either table reply is read: rank 0 replies only once everyone
	// has registered.
	register := func(rank int) net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", rootAddr)
		if err != nil {
			t.Fatal(err)
		}
		addr := "127.0.0.1:1"
		payload := make([]byte, 4+len(addr))
		binary.LittleEndian.PutUint32(payload, uint32(rank))
		copy(payload[4:], addr)
		if err := (&tcpConn{c: c}).writeFrame(tcpHelloTag, payload, TraceCtx{}, 0); err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1 := register(1)
	defer c1.Close()
	c2 := register(2)
	defer c2.Close()
	for _, c := range []net.Conn{c1, c2} {
		if _, _, _, err := readFrame(c); err != nil { // the table reply
			t.Fatal(err)
		}
	}

	// Mesh phase: two hellos both claiming rank 2.
	hello := func(rank int) net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", rootAddr)
		if err != nil {
			t.Fatal(err)
		}
		var p [4]byte
		binary.LittleEndian.PutUint32(p[:], uint32(rank))
		if err := (&tcpConn{c: c}).writeFrame(tcpHelloTag, p[:], TraceCtx{}, 0); err != nil {
			t.Fatal(err)
		}
		return c
	}
	h1 := hello(2)
	defer h1.Close()
	h2 := hello(2)
	defer h2.Close()

	select {
	case err := <-resCh:
		if err == nil {
			t.Fatal("bootstrap with a duplicate hello must fail")
		}
		if !strings.Contains(err.Error(), "duplicate mesh hello") {
			t.Fatalf("want duplicate-hello error, got: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("rank 0 bootstrap hung on duplicate hello")
	}
}

// A rendezvous where one rank never shows up must resolve to a typed
// timeout naming the missing rank — pre-fix, rank 0 blocked in Accept
// forever.
func TestRendezvousMissingRankTimesOut(t *testing.T) {
	start := time.Now()
	_, err := DialTCPOpts(0, 2, "127.0.0.1:0", "127.0.0.1:0",
		TCPOptions{RendezvousTimeout: 300 * time.Millisecond})
	pe, ok := AsPeerError(err)
	if !ok || pe.Op != OpRendezvous || pe.Rank != 1 || !pe.Timeout() {
		t.Fatalf("want rendezvous timeout naming rank 1, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("rendezvous timeout took %v", elapsed)
	}
}

// The non-root side of the same failure: an unreachable root resolves to a
// typed timeout naming rank 0.
func TestRendezvousUnreachableRootTimesOut(t *testing.T) {
	_, err := DialTCPOpts(1, 2, "127.0.0.1:1", "127.0.0.1:0",
		TCPOptions{RendezvousTimeout: 300 * time.Millisecond})
	pe, ok := AsPeerError(err)
	if !ok || pe.Op != OpRendezvous || pe.Rank != 0 || !pe.Timeout() {
		t.Fatalf("want rendezvous timeout naming rank 0, got %v", err)
	}
}

// Graceful teardown: Close sends a goodbye frame, so the peer's next Recv
// reports an orderly departure (ErrPeerClosed), distinguishable from a
// crash.
func TestGracefulCloseSignalsPeers(t *testing.T) {
	comms, err := StartLocalTCPJobOpts(2, fastTCPOpts())
	if err != nil {
		t.Fatal(err)
	}
	comms[0].Close()
	_, rerr := comms[1].Recv(0, 1)
	pe, ok := AsPeerError(rerr)
	if !ok || pe.Rank != 0 || !errors.Is(pe.Err, ErrPeerClosed) {
		t.Fatalf("want graceful ErrPeerClosed from rank 0, got %v", rerr)
	}
	comms[1].Close()
}

// Close while a peer is mid-send must not lose the in-flight frame: the
// receiver drains buffered frames before surfacing the teardown error.
func TestCloseDrainsInFlightFrames(t *testing.T) {
	comms, err := StartLocalTCPJobOpts(2, fastTCPOpts())
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1<<16)
	payload[len(payload)-1] = 7
	if err := comms[0].Send(1, 5, payload); err != nil {
		t.Fatal(err)
	}
	comms[0].Close()
	// The data frame was written before the goodbye: it must still be
	// receivable after the sender is gone.
	b, err := comms[1].Recv(0, 5)
	if err != nil || len(b) != len(payload) || b[len(b)-1] != 7 {
		t.Fatalf("in-flight frame lost on close: len=%d err=%v", len(b), err)
	}
	if _, err := comms[1].Recv(0, 5); err == nil {
		t.Fatal("after drain, recv must surface the teardown")
	}
	comms[1].Close()
}
