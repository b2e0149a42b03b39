package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// WorldOptions configures the in-process transport.
type WorldOptions struct {
	// RecvTimeout bounds each Recv; an expiry yields a typed *PeerError
	// with ErrTimeout, matching the TCP transport. Zero (the default)
	// blocks forever, preserving the seed behavior.
	RecvTimeout time.Duration
}

// World is an in-process MPI job: n ranks connected through buffered
// channels. It models the paper's multi-process (MP) single-node
// configuration without OS processes, which lets tests run hundreds of
// "ranks" cheaply.
type World struct {
	n     int
	opts  WorldOptions
	boxes [][]*mailbox // boxes[to][from]
	subs  []subTable   // per destination rank
}

// NewWorld creates an n-rank in-process job with default options.
func NewWorld(n int) (*World, error) { return NewWorldOpts(n, WorldOptions{}) }

// NewWorldOpts creates an n-rank in-process job with explicit options.
func NewWorldOpts(n int, opts WorldOptions) (*World, error) {
	if n < 1 {
		return nil, fmt.Errorf("mpi: world size %d < 1", n)
	}
	w := &World{n: n, opts: opts, boxes: make([][]*mailbox, n), subs: make([]subTable, n)}
	for to := 0; to < n; to++ {
		w.boxes[to] = make([]*mailbox, n)
		for from := 0; from < n; from++ {
			w.boxes[to][from] = newMailbox()
		}
	}
	return w, nil
}

// Size returns the job size.
func (w *World) Size() int { return w.n }

// Comm returns rank r's communicator.
func (w *World) Comm(r int) *Comm {
	if r < 0 || r >= w.n {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", r, w.n))
	}
	return NewComm(&inprocEndpoint{w: w, rank: r})
}

// Rejoin returns a fresh communicator for a rank whose previous endpoint
// was closed or abandoned (the in-process analogue of a process restart):
// its inbound mailboxes are drained of stale frames and its tag
// subscriptions cleared, so the new incarnation starts clean and can
// re-subscribe. Only call after the rank's previous incarnation has stopped
// — live peers' mailboxes to other ranks are untouched.
func (w *World) Rejoin(r int) *Comm {
	if r < 0 || r >= w.n {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", r, w.n))
	}
	for _, mb := range w.boxes[r] {
		mb.reset()
	}
	w.subs[r].clear()
	return w.Comm(r)
}

// Run spawns fn for every rank on its own goroutine and waits for all to
// return, collecting the first non-nil error.
func (w *World) Run(fn func(c *Comm) error) error {
	errs := make([]error, w.n)
	var wg sync.WaitGroup
	wg.Add(w.n)
	for r := 0; r < w.n; r++ {
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(w.Comm(r))
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

type inprocEndpoint struct {
	w      *World
	rank   int
	closed atomic.Bool
	traceHook
}

func (e *inprocEndpoint) Rank() int { return e.rank }
func (e *inprocEndpoint) Size() int { return e.w.n }

// Send queues m in the peer's mailbox. A borrowed payload is copied so the
// sender may reuse its buffer immediately (MPI semantics); an owned frame
// goes in as is, and the receiver (or the pool, on a failed delivery) takes
// it from there — which makes a collective segment zero-copy from
// serialization to reduce.
func (e *inprocEndpoint) Send(to int, tag uint32, m Msg) error {
	if err := e.check(to); err != nil {
		m.release()
		return err
	}
	buf := m.Buf
	if !m.Owned {
		buf = append([]byte(nil), buf...)
	}
	// Subscribers own delivered payloads indefinitely (and a full subscriber
	// drops); either way an owned frame leaves the pool's accounting —
	// sync.Pool makes that a GC matter, not a leak.
	if e.w.subs[to].deliver(e.rank, tag, buf) {
		return nil
	}
	e.w.boxes[to][e.rank].ch <- frame{tag: tag, buf: buf, ctx: m.Ctx}
	return nil
}

// Subscribe registers a tag side channel for this rank in the world, so
// senders deliver matching messages out of band (see Comm.Subscribe).
func (e *inprocEndpoint) Subscribe(tag uint32, buf int) (<-chan Tagged, error) {
	return e.w.subs[e.rank].subscribe(tag, buf)
}

// Recv returns the next message from the peer carrying tag (see
// mailbox.recv); an expired RecvTimeout yields a typed *PeerError, matching
// the TCP transport's semantics.
func (e *inprocEndpoint) Recv(from int, tag uint32) ([]byte, error) {
	if err := e.check(from); err != nil {
		return nil, err
	}
	m, err := e.w.boxes[e.rank][from].recv(from, tag, e.w.opts.RecvTimeout)
	if err != nil {
		return nil, err
	}
	e.observe(from, m)
	return m.buf, nil
}

func (e *inprocEndpoint) check(peer int) error {
	if e.closed.Load() {
		return fmt.Errorf("mpi: rank %d endpoint is closed", e.rank)
	}
	if peer < 0 || peer >= e.w.n {
		return fmt.Errorf("mpi: peer %d out of range [0,%d)", peer, e.w.n)
	}
	if peer == e.rank {
		return fmt.Errorf("mpi: rank %d self-messaging is not supported", e.rank)
	}
	return nil
}

func (e *inprocEndpoint) Close() error {
	if e.closed.Swap(true) {
		return fmt.Errorf("mpi: rank %d double close", e.rank)
	}
	return nil
}

// Abort has no abrupt path in-process: mailboxes outlive the endpoint.
func (e *inprocEndpoint) Abort() { e.closed.Store(true) }
