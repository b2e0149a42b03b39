package mpi

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dnnperf/internal/telemetry"
)

// TCP wire format: every frame is [4B payloadLen][4B tag][payload]. The top
// bit of the payloadLen word (tcpCtxFlag) marks a frame carrying a causal
// trace context: a traceCtxBytes block between the header and the payload.
// Lengths stay well below the flag bit (maxFrameBytes = 1<<30), so legacy
// frames and stamped frames share one header layout.
// Bootstrap: rank 0 runs a rendezvous service at a known address; every
// rank registers its own listener address, receives the full table, and the
// job then builds a full mesh (rank i dials every j < i; j accepts and
// learns i from a hello frame).
//
// Every blocking operation carries a deadline (see TCPOptions), so a dead
// or partitioned peer resolves to a typed *PeerError instead of a hang, and
// teardown is a goodbye handshake plus a bounded drain so Close during
// in-flight traffic does not race the sockets out from under writers.

const (
	tcpHelloTag   = 0xfffffffe
	tcpGoodbyeTag = 0xfffffffd
	// tcpRejoinTag frames the regrow handshake: a healed/restarted process
	// dials a member's retained listener and sends [4B rank][listen addr];
	// the member replaces the dead peer slot and acks with an empty frame.
	tcpRejoinTag = 0xfffffffc
)

// Default deadlines for the TCP transport. Zero fields in TCPOptions take
// these values; negative fields disable the deadline entirely.
const (
	// DefaultRendezvousTimeout bounds each bootstrap phase (rendezvous and
	// mesh construction): a rank that never shows up yields a PeerError
	// naming it instead of an eternal Accept.
	DefaultRendezvousTimeout = 10 * time.Second
	// DefaultRecvTimeout bounds each Recv once the mesh is up. It is far
	// above any legitimate inter-step gap on a healthy job.
	DefaultRecvTimeout = 30 * time.Second
	// DefaultWriteTimeout bounds each frame write, so a peer that stopped
	// reading cannot wedge senders behind full socket buffers.
	DefaultWriteTimeout = 10 * time.Second
	// DefaultDrainTimeout bounds how long Close waits for peer goodbyes
	// before dropping the sockets.
	DefaultDrainTimeout = 150 * time.Millisecond
)

// dialBackoff is the retry interval while a peer's listener is not up yet
// during bootstrap.
const dialBackoff = 20 * time.Millisecond

// TCPOptions configures the transport's deadlines and bootstrap. The zero
// value means defaults everywhere; negative durations disable that deadline.
type TCPOptions struct {
	// RendezvousTimeout bounds each bootstrap phase (rendezvous, mesh).
	RendezvousTimeout time.Duration
	// RecvTimeout bounds each post-bootstrap Recv.
	RecvTimeout time.Duration
	// WriteTimeout bounds each frame write.
	WriteTimeout time.Duration
	// DrainTimeout bounds Close's wait for peer goodbyes.
	DrainTimeout time.Duration
	// Listener, when set, is adopted as this rank's listener instead of
	// binding bindAddr (rootAddr for rank 0). The endpoint takes ownership
	// and closes it. StartLocalTCPJob uses this to hand rank 0 the live
	// rendezvous listener, eliminating the close-then-rebind port race.
	Listener net.Listener
	// Telemetry, when set, counts bootstrap retries under
	// mpi.tcp.dial_retries — how often this rank found a peer's listener
	// (or the rendezvous port) not up yet and backed off.
	Telemetry *telemetry.Registry
}

// countDialRetry records one bootstrap backoff. Retry loops are cold (they
// sleep dialBackoff between attempts), so the registry lookup is fine here.
func (o TCPOptions) countDialRetry() {
	if o.Telemetry != nil {
		o.Telemetry.Counter("mpi.tcp.dial_retries").Inc()
	}
}

func (o TCPOptions) withDefaults() TCPOptions {
	def := func(d *time.Duration, v time.Duration) {
		if *d == 0 {
			*d = v
		}
	}
	def(&o.RendezvousTimeout, DefaultRendezvousTimeout)
	def(&o.RecvTimeout, DefaultRecvTimeout)
	def(&o.WriteTimeout, DefaultWriteTimeout)
	def(&o.DrainTimeout, DefaultDrainTimeout)
	return o
}

// peerState is the per-peer failure latch.
type peerState struct {
	mu  sync.Mutex
	err error // first failure against this peer, latched forever
}

// latch records the first failure; later failures are ignored so every
// subsequent Send/Recv reports the original cause.
func (ps *peerState) latch(err error) {
	ps.mu.Lock()
	if ps.err == nil {
		ps.err = err
	}
	ps.mu.Unlock()
}

func (ps *peerState) latched() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.err
}

type tcpEndpoint struct {
	rank, size int
	opts       TCPOptions
	listener   net.Listener
	readWG     sync.WaitGroup
	closed     atomic.Bool
	closeOnce  sync.Once
	closeErr   error
	rejoinOnce sync.Once

	// stateMu guards per-peer slot replacement: a readmitted peer gets a
	// fresh conn, mailbox and failure latch (the old box is closed and its
	// latch poisoned forever). Readers snapshot the slot under RLock; the
	// hot path cost is an uncontended RLock per Send/Recv.
	stateMu sync.RWMutex
	conns   []*tcpConn // indexed by peer rank; nil at self
	boxes   []*mailbox
	peers   []*peerState
	addrs   []string // rendezvous table, kept current through readmits

	subs subTable // tag side channels (Subscribe), fed by readLoop
	traceHook
}

// newTCPEndpoint builds an endpoint with an empty mailbox and failure latch
// per peer slot and no connections yet.
func newTCPEndpoint(rank, size int, opts TCPOptions) *tcpEndpoint {
	ep := &tcpEndpoint{
		rank:  rank,
		size:  size,
		opts:  opts,
		conns: make([]*tcpConn, size),
		boxes: make([]*mailbox, size),
		peers: make([]*peerState, size),
	}
	for i := range ep.boxes {
		ep.boxes[i] = newMailbox()
		ep.peers[i] = &peerState{}
	}
	return ep
}

// slot snapshots a peer's current connection state under the read lock.
func (ep *tcpEndpoint) slot(peer int) (*tcpConn, *mailbox, *peerState) {
	ep.stateMu.RLock()
	defer ep.stateMu.RUnlock()
	return ep.conns[peer], ep.boxes[peer], ep.peers[peer]
}

// peerLive reports whether the peer's slot holds a connection with no
// latched failure.
func (ep *tcpEndpoint) peerLive(peer int) bool {
	ep.stateMu.RLock()
	defer ep.stateMu.RUnlock()
	return ep.conns[peer] != nil && ep.peers[peer].latched() == nil
}

// Subscribe registers a side channel for tag: readLoop routes matching
// frames into the returned buffered channel, dropping when it is full.
func (ep *tcpEndpoint) Subscribe(tag uint32, buf int) (<-chan Tagged, error) {
	return ep.subs.subscribe(tag, buf)
}

type tcpConn struct {
	c  net.Conn
	mu sync.Mutex // serializes writes and guards the scratch below

	// writeFrame's scratch, reused under mu so a frame costs no allocation.
	hdr  [8 + traceCtxBytes]byte
	iov  [2][]byte
	bufs net.Buffers
}

// writeFrame is the one frame writer: header, then the encoded trace context
// if ctx is stamped (the length word then carries tcpCtxFlag; a zero Span
// writes a legacy frame), then the payload, all under write deadline d
// (d <= 0: none). Header and payload go out in one vectored write, so a
// frame is one syscall and, with TCP_NODELAY, no header-only packet.
func (tc *tcpConn) writeFrame(tag uint32, payload []byte, ctx TraceCtx, d time.Duration) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if d > 0 {
		tc.c.SetWriteDeadline(time.Now().Add(d))
		defer tc.c.SetWriteDeadline(time.Time{})
	}
	n, word := 8, uint32(len(payload))
	if ctx.Span != 0 {
		word |= tcpCtxFlag
		ctx.encode(tc.hdr[8:])
		n += traceCtxBytes
	}
	binary.LittleEndian.PutUint32(tc.hdr[0:], word)
	binary.LittleEndian.PutUint32(tc.hdr[4:], tag)
	tc.iov = [2][]byte{tc.hdr[:n], payload}
	tc.bufs = tc.iov[:]
	_, err := tc.bufs.WriteTo(tc.c) // nils iov's entries as it writes them
	return err
}

// close drops the socket, taking the write lock first so an in-flight
// writeFrame finishes its frame before the connection goes away.
func (tc *tcpConn) close() {
	tc.mu.Lock()
	tc.c.Close()
	tc.mu.Unlock()
}

// maxFrameBytes bounds a single TCP frame (1 GiB): larger lengths indicate
// a corrupt or hostile stream, not a legitimate gradient payload.
const maxFrameBytes = 1 << 30

// tcpCtxFlag marks a frame whose header is followed by an encoded TraceCtx.
// It lives in the payload-length word's top bit, which maxFrameBytes keeps
// clear for legitimate lengths.
const tcpCtxFlag = uint32(1) << 31

func readFrame(c net.Conn) (uint32, []byte, TraceCtx, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return 0, nil, TraceCtx{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	tag := binary.LittleEndian.Uint32(hdr[4:])
	hasCtx := n&tcpCtxFlag != 0
	n &^= tcpCtxFlag
	if n > maxFrameBytes {
		return 0, nil, TraceCtx{}, fmt.Errorf("mpi: frame length %d exceeds limit", n)
	}
	var ctx TraceCtx
	if hasCtx {
		var cb [traceCtxBytes]byte
		if _, err := io.ReadFull(c, cb[:]); err != nil {
			return 0, nil, TraceCtx{}, err
		}
		ctx = decodeTraceCtx(cb[:])
	}
	// Pooled so steady-state collective traffic recycles frames: receivers
	// that finish with a frame (the collectives) return it; receivers that
	// retain one (bootstrap tables, subscribers) just keep it and the pool
	// never sees it again — both are safe, see FramePool.
	payload := sharedFramePool.Get(int(n))
	if _, err := io.ReadFull(c, payload); err != nil {
		sharedFramePool.Put(payload)
		return 0, nil, TraceCtx{}, err
	}
	return tag, payload, ctx, nil
}

// DialTCP joins a size-rank TCP job as the given rank with default options.
// rootAddr is the rendezvous address rank 0 listens on; bindAddr is this
// rank's listen address pattern (use "127.0.0.1:0" to pick a free port).
func DialTCP(rank, size int, rootAddr, bindAddr string) (*Comm, error) {
	return DialTCPOpts(rank, size, rootAddr, bindAddr, TCPOptions{})
}

// DialTCPOpts is DialTCP with explicit deadline and bootstrap options.
func DialTCPOpts(rank, size int, rootAddr, bindAddr string, opts TCPOptions) (*Comm, error) {
	if size < 1 || rank < 0 || rank >= size {
		if opts.Listener != nil {
			opts.Listener.Close()
		}
		return nil, fmt.Errorf("mpi: invalid rank %d of %d", rank, size)
	}
	opts = opts.withDefaults()
	ep := newTCPEndpoint(rank, size, opts)
	if size == 1 {
		if opts.Listener != nil {
			opts.Listener.Close()
		}
		return NewComm(ep), nil
	}

	ln := opts.Listener
	if ln == nil {
		var err error
		addr := bindAddr
		if rank == 0 {
			addr = rootAddr
		}
		ln, err = listenRetry(addr, rank == 0, opts)
		if err != nil {
			return nil, fmt.Errorf("mpi: listen: %w", err)
		}
	}
	ep.listener = ln

	table, err := rendezvous(rank, size, rootAddr, ln, opts)
	if err != nil {
		ln.Close()
		return nil, err
	}
	ep.addrs = append([]string(nil), table...)
	if err := ep.mesh(table); err != nil {
		ln.Close()
		return nil, err
	}
	for peer, tc := range ep.conns {
		if tc != nil {
			ep.readWG.Add(1)
			go ep.readLoop(peer, tc, ep.peers[peer], ep.boxes[peer])
		}
	}
	return NewComm(ep), nil
}

// listenRetry binds addr. For rank 0 (retry set) it retries a busy address
// until RendezvousTimeout: a launcher that reserved the rendezvous port can
// keep holding it until every worker is spawned, and rank 0 binds the
// moment it is released instead of racing the close.
func listenRetry(addr string, retry bool, opts TCPOptions) (net.Listener, error) {
	var deadline time.Time
	if retry && opts.RendezvousTimeout > 0 {
		deadline = time.Now().Add(opts.RendezvousTimeout)
	}
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil || !retry || (!deadline.IsZero() && time.Now().After(deadline)) {
			return ln, err
		}
		opts.countDialRetry()
		time.Sleep(dialBackoff)
	}
}

// setListenerDeadline applies an accept deadline if the listener supports
// one (net.TCPListener does).
func setListenerDeadline(ln net.Listener, t time.Time) {
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(t)
	}
}

func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// rendezvous exchanges listener addresses through rank 0 and returns the
// full table. Every blocking step is bounded by opts.RendezvousTimeout.
func rendezvous(rank, size int, rootAddr string, ln net.Listener, opts TCPOptions) ([]string, error) {
	var deadline time.Time
	if opts.RendezvousTimeout > 0 {
		deadline = time.Now().Add(opts.RendezvousTimeout)
	}
	table := make([]string, size)
	if rank == 0 {
		table[0] = ln.Addr().String()
		setListenerDeadline(ln, deadline)
		defer setListenerDeadline(ln, time.Time{})
		regs := make([]net.Conn, 0, size-1)
		defer func() {
			for _, c := range regs {
				c.Close()
			}
		}()
		for i := 1; i < size; i++ {
			c, err := ln.Accept()
			if err != nil {
				if isTimeout(err) {
					return nil, &PeerError{Rank: firstMissing(table), Op: OpRendezvous, Err: ErrTimeout}
				}
				return nil, fmt.Errorf("mpi: rendezvous accept: %w", err)
			}
			c.SetReadDeadline(deadline)
			tag, payload, _, err := readFrame(c)
			if err != nil || tag != tcpHelloTag || len(payload) < 4 {
				c.Close()
				if err != nil && isTimeout(err) {
					return nil, &PeerError{Rank: firstMissing(table), Op: OpRendezvous, Err: ErrTimeout}
				}
				return nil, fmt.Errorf("mpi: bad registration (tag %#x): %v", tag, err)
			}
			c.SetReadDeadline(time.Time{})
			r := int(binary.LittleEndian.Uint32(payload))
			if r < 1 || r >= size || table[r] != "" {
				c.Close()
				return nil, fmt.Errorf("mpi: bad or duplicate registration rank %d", r)
			}
			table[r] = string(payload[4:])
			regs = append(regs, c)
		}
		packed := packParts(stringsToBytes(table))
		for _, c := range regs {
			tc := &tcpConn{c: c}
			if err := tc.writeFrame(tcpHelloTag, packed, TraceCtx{}, opts.WriteTimeout); err != nil {
				return nil, fmt.Errorf("mpi: rendezvous reply: %w", err)
			}
		}
		return table, nil
	}

	// Non-root: register with retries (root may not be up yet).
	var conn net.Conn
	var err error
	for {
		conn, err = net.Dial("tcp", rootAddr)
		if err == nil {
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, &PeerError{Rank: 0, Op: OpRendezvous, Err: fmt.Errorf("%w dialing %s: %v", ErrTimeout, rootAddr, err)}
		}
		opts.countDialRetry()
		time.Sleep(dialBackoff)
	}
	defer conn.Close()
	payload := make([]byte, 4+len(ln.Addr().String()))
	binary.LittleEndian.PutUint32(payload, uint32(rank))
	copy(payload[4:], ln.Addr().String())
	tc := &tcpConn{c: conn}
	if err := tc.writeFrame(tcpHelloTag, payload, TraceCtx{}, opts.WriteTimeout); err != nil {
		return nil, fmt.Errorf("mpi: register: %w", err)
	}
	conn.SetReadDeadline(deadline)
	tag, packed, _, err := readFrame(conn)
	if err != nil || tag != tcpHelloTag {
		if err != nil && isTimeout(err) {
			return nil, &PeerError{Rank: 0, Op: OpRendezvous, Err: ErrTimeout}
		}
		return nil, fmt.Errorf("mpi: rendezvous table (tag %#x): %v", tag, err)
	}
	parts, err := unpackParts(packed)
	if err != nil || len(parts) != size {
		return nil, fmt.Errorf("mpi: rendezvous table decode: %v", err)
	}
	for i, p := range parts {
		table[i] = string(p)
	}
	return table, nil
}

// firstMissing names the lowest rank that has not registered yet — the peer
// a rendezvous timeout is attributable to.
func firstMissing(table []string) int {
	for r := 1; r < len(table); r++ {
		if table[r] == "" {
			return r
		}
	}
	return 0
}

func stringsToBytes(ss []string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

// mesh dials every lower rank and accepts every higher rank, all bounded by
// the rendezvous deadline.
func (ep *tcpEndpoint) mesh(table []string) error {
	var deadline time.Time
	if ep.opts.RendezvousTimeout > 0 {
		deadline = time.Now().Add(ep.opts.RendezvousTimeout)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	record := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	missingAccept := func() int {
		mu.Lock()
		defer mu.Unlock()
		for peer := ep.rank + 1; peer < ep.size; peer++ {
			if ep.conns[peer] == nil {
				return peer
			}
		}
		return ep.rank + 1
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		setListenerDeadline(ep.listener, deadline)
		defer setListenerDeadline(ep.listener, time.Time{})
		for accepted := 0; accepted < ep.size-1-ep.rank; accepted++ {
			c, err := ep.listener.Accept()
			if err != nil {
				if isTimeout(err) {
					record(&PeerError{Rank: missingAccept(), Op: OpAccept, Err: ErrTimeout})
				} else {
					record(fmt.Errorf("mpi: mesh accept: %w", err))
				}
				return
			}
			c.SetReadDeadline(deadline)
			tag, payload, _, err := readFrame(c)
			if err != nil || tag != tcpHelloTag || len(payload) != 4 {
				c.Close()
				if err != nil && isTimeout(err) {
					record(&PeerError{Rank: missingAccept(), Op: OpAccept, Err: ErrTimeout})
				} else {
					record(fmt.Errorf("mpi: mesh hello: %v", err))
				}
				return
			}
			c.SetReadDeadline(time.Time{})
			peer := int(binary.LittleEndian.Uint32(payload))
			if peer <= ep.rank || peer >= ep.size {
				c.Close()
				record(fmt.Errorf("mpi: mesh hello from invalid rank %d", peer))
				return
			}
			mu.Lock()
			if ep.conns[peer] != nil {
				mu.Unlock()
				c.Close()
				record(fmt.Errorf("mpi: duplicate mesh hello from rank %d", peer))
				return
			}
			ep.conns[peer] = &tcpConn{c: c}
			mu.Unlock()
		}
	}()
	for peer := 0; peer < ep.rank; peer++ {
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			var c net.Conn
			var err error
			for {
				c, err = net.Dial("tcp", table[peer])
				if err == nil {
					break
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					record(&PeerError{Rank: peer, Op: OpDial, Err: fmt.Errorf("%w: %v", ErrTimeout, err)})
					return
				}
				ep.opts.countDialRetry()
				time.Sleep(dialBackoff)
			}
			tc := &tcpConn{c: c}
			var hello [4]byte
			binary.LittleEndian.PutUint32(hello[:], uint32(ep.rank))
			if err := tc.writeFrame(tcpHelloTag, hello[:], TraceCtx{}, ep.opts.WriteTimeout); err != nil {
				record(&PeerError{Rank: peer, Op: OpDial, Err: err})
				return
			}
			mu.Lock()
			ep.conns[peer] = tc
			mu.Unlock()
		}(peer)
	}
	wg.Wait()
	return firstErr
}

// readLoop pumps frames from one peer into its mailbox. It exits — latching
// the peer's failure and closing the box — on goodbye, disconnect, or any
// read error; buffered frames already in the box stay receivable. The loop
// is pinned to its own connection generation's box and latch (passed in, not
// looked up), so a loop left over from a readmitted peer's previous
// connection can never poison the fresh slot.
func (ep *tcpEndpoint) readLoop(peer int, tc *tcpConn, ps *peerState, box *mailbox) {
	defer ep.readWG.Done()
	for {
		tag, payload, ctx, err := readFrame(tc.c)
		if err != nil {
			cause := err
			if ep.closed.Load() {
				cause = ErrClosed
			}
			ps.latch(&PeerError{Rank: peer, Op: OpRecv, Err: cause})
			close(box.ch)
			return
		}
		if tag == tcpGoodbyeTag {
			ps.latch(&PeerError{Rank: peer, Op: OpRecv, Err: ErrPeerClosed})
			close(box.ch)
			return
		}
		if ep.subs.deliver(peer, tag, payload) {
			continue
		}
		box.ch <- frame{tag: tag, buf: payload, ctx: ctx}
	}
}

func (ep *tcpEndpoint) Rank() int { return ep.rank }
func (ep *tcpEndpoint) Size() int { return ep.size }

// Send writes m as one frame; an unstamped m writes a legacy frame, so the
// tracing-off hot path is a single comparison wider. The kernel copies at
// write(2), so an owned frame goes back to the pool as soon as the write
// returns or fails: "zero-copy" on TCP means zero extra user-space
// allocation and copy per frame.
func (ep *tcpEndpoint) Send(to int, tag uint32, m Msg) error {
	defer m.release()
	if to < 0 || to >= ep.size || to == ep.rank {
		return fmt.Errorf("mpi: invalid send target %d", to)
	}
	tc, _, ps := ep.slot(to)
	if err := ps.latched(); err != nil {
		return err
	}
	if tc == nil {
		return fmt.Errorf("mpi: no connection to rank %d", to)
	}
	if err := tc.writeFrame(tag, m.Buf, m.Ctx, ep.opts.WriteTimeout); err != nil {
		cause := err
		if isTimeout(err) {
			cause = fmt.Errorf("%w: %v", ErrTimeout, err)
		} else if ep.closed.Load() {
			cause = ErrClosed
		}
		ps.latch(&PeerError{Rank: to, Op: OpSend, Err: cause})
		return ps.latched()
	}
	return nil
}

// Recv returns the next frame from the peer carrying tag (see mailbox.recv);
// a dead peer or an expired deadline yields a typed *PeerError.
func (ep *tcpEndpoint) Recv(from int, tag uint32) ([]byte, error) {
	if from < 0 || from >= ep.size || from == ep.rank {
		return nil, fmt.Errorf("mpi: invalid recv source %d", from)
	}
	_, box, ps := ep.slot(from)
	m, err := box.recv(from, tag, ep.opts.RecvTimeout)
	if err == errMailboxClosed {
		return nil, ps.latched()
	}
	if err != nil {
		return nil, err
	}
	ep.observe(from, m)
	return m.buf, nil
}

// Close tears the endpoint down gracefully: a goodbye frame to every live
// peer, a bounded drain waiting for their goodbyes so in-flight frames are
// consumed, then the sockets close (each behind its write lock, so a
// concurrent writeFrame finishes first).
func (ep *tcpEndpoint) Close() error { return ep.shutdown(true) }

// Abort tears the endpoint down abruptly — no goodbye, no drain — modeling
// a crashed rank: peers observe a reset connection.
func (ep *tcpEndpoint) Abort() { ep.shutdown(false) }

func (ep *tcpEndpoint) shutdown(graceful bool) error {
	ep.closeOnce.Do(func() {
		ep.closed.Store(true)
		// Fence: an installPeer holding stateMu finishes (its readWG.Add
		// lands before the drain below); any later install sees closed and
		// refuses. Then snapshot the slots for teardown.
		ep.stateMu.Lock()
		conns := append([]*tcpConn(nil), ep.conns...)
		peers := append([]*peerState(nil), ep.peers...)
		ep.stateMu.Unlock()
		if graceful {
			// Goodbye is best-effort with a short deadline: a wedged peer
			// must not stall teardown.
			d := ep.opts.DrainTimeout
			if d <= 0 {
				d = DefaultDrainTimeout
			}
			for peer, tc := range conns {
				if tc != nil && peers[peer].latched() == nil {
					tc.writeFrame(tcpGoodbyeTag, nil, TraceCtx{}, d)
				}
			}
			if ep.opts.DrainTimeout > 0 {
				done := make(chan struct{})
				go func() {
					ep.readWG.Wait()
					close(done)
				}()
				select {
				case <-done:
				case <-time.After(ep.opts.DrainTimeout):
				}
			}
		}
		if ep.listener != nil {
			ep.closeErr = ep.listener.Close()
		}
		for peer, tc := range conns {
			if tc != nil {
				peers[peer].latch(&PeerError{Rank: peer, Op: OpClose, Err: ErrClosed})
				tc.close()
			}
		}
	})
	return ep.closeErr
}

// EnableRejoin arms the regrow acceptor: a goroutine on the retained
// listener (idle after mesh bootstrap) that readmits crashed or partitioned
// peers' fresh connections. Idempotent; the goroutine exits when the
// endpoint shuts down.
func (ep *tcpEndpoint) EnableRejoin() {
	if ep.listener == nil {
		return
	}
	ep.rejoinOnce.Do(func() { go ep.acceptRejoins() })
}

func (ep *tcpEndpoint) acceptRejoins() {
	for {
		c, err := ep.listener.Accept()
		if err != nil {
			if ep.closed.Load() {
				return
			}
			if isTimeout(err) {
				continue
			}
			return
		}
		go ep.handleRejoin(c)
	}
}

// handleRejoin validates one inbound rejoin handshake and installs the peer.
// A hello naming a still-live peer is refused by dropping the connection —
// the dialer's ack read fails and it retries (the usual case: this member
// has not yet latched the old connection's death).
func (ep *tcpEndpoint) handleRejoin(c net.Conn) {
	if d := ep.opts.RendezvousTimeout; d > 0 {
		c.SetReadDeadline(time.Now().Add(d))
	}
	tag, payload, _, err := readFrame(c)
	if err != nil || tag != tcpRejoinTag || len(payload) < 4 {
		c.Close()
		return
	}
	c.SetReadDeadline(time.Time{})
	peer := int(binary.LittleEndian.Uint32(payload))
	addr := string(payload[4:])
	if peer < 0 || peer >= ep.size || peer == ep.rank {
		c.Close()
		return
	}
	tc := &tcpConn{c: c}
	if !ep.installPeer(peer, addr, tc) {
		c.Close()
		return
	}
	tc.writeFrame(tcpRejoinTag, nil, TraceCtx{}, ep.opts.WriteTimeout) // ack: the slot is live
}

// installPeer replaces a dead (or never-connected) peer slot with a fresh
// connection, mailbox and failure latch, and starts its read loop. Refuses
// when the peer is still live or the endpoint is closed.
func (ep *tcpEndpoint) installPeer(peer int, addr string, tc *tcpConn) bool {
	ep.stateMu.Lock()
	defer ep.stateMu.Unlock()
	if ep.closed.Load() {
		return false
	}
	if ep.conns[peer] != nil && ep.peers[peer].latched() == nil {
		return false
	}
	ep.conns[peer] = tc
	ep.boxes[peer] = newMailbox()
	ep.peers[peer] = &peerState{}
	if addr != "" && ep.addrs != nil {
		ep.addrs[peer] = addr
	}
	ep.readWG.Add(1)
	go ep.readLoop(peer, tc, ep.peers[peer], ep.boxes[peer])
	return true
}

// ownAddr is this endpoint's listen address, carried in rejoin hellos so
// the remote side's address table stays current.
func (ep *tcpEndpoint) ownAddr() string {
	if ep.listener == nil {
		return ""
	}
	return ep.listener.Addr().String()
}

// RedialPeer establishes a fresh connection to peer's listener (the regrow
// dialer side), retrying until timeout: the remote may not have armed its
// acceptor yet, or may not have latched the old connection's death. A
// currently-live peer is a no-op success. Empty addr falls back to the
// retained address table.
func (ep *tcpEndpoint) RedialPeer(peer int, addr string, timeout time.Duration) error {
	if peer < 0 || peer >= ep.size || peer == ep.rank {
		return fmt.Errorf("mpi: invalid redial target %d", peer)
	}
	if addr == "" {
		ep.stateMu.RLock()
		if ep.addrs != nil {
			addr = ep.addrs[peer]
		}
		ep.stateMu.RUnlock()
	}
	if addr == "" {
		return fmt.Errorf("mpi: no known address for rank %d", peer)
	}
	deadline := time.Now().Add(timeout)
	hello := make([]byte, 4+len(ep.ownAddr()))
	binary.LittleEndian.PutUint32(hello, uint32(ep.rank))
	copy(hello[4:], ep.ownAddr())
	var lastErr error
	for {
		if ep.peerLive(peer) {
			return nil
		}
		if err := ep.redialOnce(peer, addr, hello, deadline); err == nil {
			return nil
		} else {
			lastErr = err
		}
		if time.Now().After(deadline) {
			return &PeerError{Rank: peer, Op: OpDial, Err: fmt.Errorf("%w: %v", ErrTimeout, lastErr)}
		}
		ep.opts.countDialRetry()
		time.Sleep(dialBackoff)
	}
}

func (ep *tcpEndpoint) redialOnce(peer int, addr string, hello []byte, deadline time.Time) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	tc := &tcpConn{c: c}
	if err := tc.writeFrame(tcpRejoinTag, hello, TraceCtx{}, ep.opts.WriteTimeout); err != nil {
		c.Close()
		return err
	}
	c.SetReadDeadline(deadline)
	tag, _, _, err := readFrame(c)
	if err != nil || tag != tcpRejoinTag {
		c.Close()
		if err == nil {
			err = fmt.Errorf("unexpected ack tag %#x", tag)
		}
		return err
	}
	c.SetReadDeadline(time.Time{})
	if !ep.installPeer(peer, "", tc) {
		c.Close()
		return fmt.Errorf("rank %d already connected", peer)
	}
	return nil
}

// ReadmitWait blocks until peer's slot is live again — its rejoin dial
// arrived and was installed — or timeout expires.
func (ep *tcpEndpoint) ReadmitWait(peer int, timeout time.Duration) error {
	if peer < 0 || peer >= ep.size || peer == ep.rank {
		return fmt.Errorf("mpi: invalid readmit peer %d", peer)
	}
	deadline := time.Now().Add(timeout)
	for !ep.peerLive(peer) {
		if time.Now().After(deadline) {
			return &PeerError{Rank: peer, Op: OpAccept, Err: ErrTimeout}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// PeerAddrs returns a copy of the retained address table.
func (ep *tcpEndpoint) PeerAddrs() []string {
	ep.stateMu.RLock()
	defer ep.stateMu.RUnlock()
	return append([]string(nil), ep.addrs...)
}

// SetPeerAddr updates one entry of the address table (e.g. a restarted
// joiner's fresh listener, learned from its join request).
func (ep *tcpEndpoint) SetPeerAddr(rank int, addr string) {
	ep.stateMu.Lock()
	defer ep.stateMu.Unlock()
	if ep.addrs == nil {
		ep.addrs = make([]string, ep.size)
	}
	if rank >= 0 && rank < len(ep.addrs) && addr != "" {
		ep.addrs[rank] = addr
	}
}

// RejoinTCP builds a fresh root-level endpoint for a restarted process that
// wants its old rank back: it binds its own listener, arms the rejoin
// acceptor (co-joiners with a higher rank dial in), and establishes the
// leader link so mpi.Rejoin can run the admission loop. rank must be
// non-zero — the leader (rank 0) must survive for regrow to be possible.
func RejoinTCP(rank, size int, rootAddr, bindAddr string, opts TCPOptions) (*Comm, error) {
	if size < 2 || rank < 1 || rank >= size {
		return nil, fmt.Errorf("mpi: invalid rejoin rank %d of %d", rank, size)
	}
	opts = opts.withDefaults()
	ep := newTCPEndpoint(rank, size, opts)
	ep.addrs = make([]string, size)
	ln, err := net.Listen("tcp", bindAddr)
	if err != nil {
		return nil, fmt.Errorf("mpi: rejoin listen: %w", err)
	}
	ep.listener = ln
	ep.addrs[0] = rootAddr
	ep.addrs[rank] = ln.Addr().String()
	ep.EnableRejoin()
	if err := ep.RedialPeer(0, rootAddr, opts.RendezvousTimeout); err != nil {
		ln.Close()
		return nil, err
	}
	return NewComm(ep), nil
}

// StartLocalTCPJob bootstraps an n-rank TCP job entirely over loopback in
// this process (each rank on its own goroutine during setup) and returns the
// communicators indexed by rank. Used by tests and the quickstart tooling.
func StartLocalTCPJob(n int) ([]*Comm, error) {
	return StartLocalTCPJobOpts(n, TCPOptions{})
}

// StartLocalTCPJobOpts is StartLocalTCPJob with explicit transport options.
// Rank 0 adopts the rendezvous listener directly (never releasing the
// port), so concurrent jobs cannot race each other onto the same address.
func StartLocalTCPJobOpts(n int, opts TCPOptions) ([]*Comm, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rootAddr := ln.Addr().String()

	comms := make([]*Comm, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for r := 0; r < n; r++ {
		go func(r int) {
			defer wg.Done()
			o := opts
			if r == 0 {
				o.Listener = ln // rank 0 serves rendezvous on the live listener
			}
			comms[r], errs[r] = DialTCPOpts(r, n, rootAddr, "127.0.0.1:0", o)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, c := range comms {
				if c != nil {
					c.Close()
				}
			}
			return nil, err
		}
	}
	return comms, nil
}
