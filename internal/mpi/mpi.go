// Package mpi implements a message-passing runtime in the style of MPI —
// the role MVAPICH2 plays in the reproduced paper. It provides ranked
// point-to-point messaging over two transports (in-process channels and
// TCP), and the collectives distributed DNN training needs: Barrier, Bcast,
// ring and recursive-doubling Allreduce, and Allgather.
//
// Collective algorithms are implemented once against the Endpoint interface
// so both transports share them, mirroring how MPI layers collectives over
// point-to-point transport channels. An Endpoint has one Send and one Recv;
// what varies per message — whether the buffer's ownership transfers, which
// trace context rides along — is carried in the Msg, so decorators (fault
// injection, instrumentation, sub-communicators) compose in any order
// without knowing what the layers around them support.
package mpi

import "fmt"

// Msg is one outgoing message: the payload plus how to treat it. Ownership
// and trace context are data rather than separate send methods, so every
// transport and decorator has exactly one Send and forwards both untouched.
type Msg struct {
	// Buf is the payload.
	Buf []byte
	// Owned transfers Buf, which must have come from a FramePool, to the
	// callee: Send always consumes it — forwarded down the chain, handed to
	// the receiver, or released to the pool once written, discarded or
	// failed — and the caller must not touch it afterwards. A borrowed
	// (non-owned) Buf is the caller's again as soon as Send returns.
	Owned bool
	// Ctx is the causal trace context riding with the frame; a zero Span
	// means unstamped, which is also what a transport that cannot carry
	// context delivers.
	Ctx TraceCtx
}

// release returns an owned buffer to the pool: what an endpoint that
// consumes m without passing it on must do.
func (m Msg) release() {
	if m.Owned {
		sharedFramePool.Put(m.Buf)
	}
}

// Endpoint is one rank's point-to-point transport handle.
type Endpoint interface {
	// Rank returns this process's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks in the job.
	Size() int
	// Send delivers m to rank `to` with a matching tag. It may block until
	// the receiver has buffer space but must not require the receiver to
	// have posted a Recv.
	Send(to int, tag uint32, m Msg) error
	// Recv returns the next message from rank `from`; the message's tag
	// must equal tag (our protocols are deterministic per peer pair).
	Recv(from int, tag uint32) ([]byte, error)
	// Close releases transport resources. Further calls error.
	Close() error
	// Abort tears the transport down abruptly, skipping any goodbye
	// handshake — the MPI_Abort analogue. Endpoints without a distinct
	// abrupt path just close.
	Abort()
}

// Comm wraps an Endpoint with collective operations.
type Comm struct {
	ep   Endpoint
	alg  AllreduceAlg   // communicator-wide default (SetAllreduceAlg)
	tele *commTelemetry // per-algorithm counters (SetTelemetry)

	segBytes int // ring pipelining segment (SetSegmentBytes)

	// Pipelined-ring scratch, lazily built and reused across calls.
	// Collectives on one communicator are caller-serialized (MPI
	// semantics), so these need no lock.
	rs          *ringState
	boundsCache []int
	vec         floatVec // the running collective's view of the caller's buffers

	// flow is the causal-tracing state (SetFlowTracer); nil when tracing is
	// off, making the stamped-send check a single pointer test. Like the
	// ring scratch it is only touched on the collective caller's goroutine.
	// Deliberately not inherited by derive: a shrunk or split communicator's
	// owner re-arms tracing against the new endpoint.
	flow *flowState
}

// NewComm wraps ep in a Comm.
func NewComm(ep Endpoint) *Comm { return &Comm{ep: ep} }

// derive wraps ep in a sub-communicator that inherits the parent's
// algorithm selection and segment size — pinned behavior: a
// communicator derived by Split, Shrink, Grow or Rejoin must reproduce the
// parent's tuning, so AllreduceAlgorithm() and SegmentBytes() are
// preserved (regression tests assert this). The one exception is a forced
// recursive-doubling parent deriving a non-power-of-two child (e.g. a
// 4-rank job shrinking to 3 survivors): the inherited algorithm would make
// every Allreduce fail, so it demotes to AlgAuto. Telemetry is
// deliberately not inherited; see SetTelemetry.
func (c *Comm) derive(ep Endpoint) *Comm {
	alg := c.alg
	if alg == AlgRecursiveDoubling && !isPow2(ep.Size()) {
		alg = AlgAuto
	}
	return &Comm{ep: ep, alg: alg, segBytes: c.segBytes}
}

// FramePool returns the frame-buffer pool the communicator's collectives
// and transports draw from — one per process, so its Stats cover every
// communicator in it.
func (c *Comm) FramePool() *FramePool { return &sharedFramePool }

// SetSegmentBytes sets the pipelining segment size for the chunked ring
// allreduce. Values below 256 are clamped; 0 restores DefaultSegmentBytes.
func (c *Comm) SetSegmentBytes(n int) {
	switch {
	case n <= 0:
		c.segBytes = 0
	case n < 256:
		c.segBytes = 256
	default:
		c.segBytes = n
	}
}

// SegmentBytes returns the effective ring pipelining segment size.
func (c *Comm) SegmentBytes() int { return c.segmentBytes() }

func (c *Comm) segmentBytes() int {
	if c.segBytes > 0 {
		return c.segBytes
	}
	return DefaultSegmentBytes
}

// Rank returns this process's rank.
func (c *Comm) Rank() int { return c.ep.Rank() }

// Size returns the job size.
func (c *Comm) Size() int { return c.ep.Size() }

// Close closes the underlying endpoint. Transports with a graceful
// teardown (TCP) send a goodbye frame and drain in-flight traffic first.
func (c *Comm) Close() error { return c.ep.Close() }

// Endpoint returns the underlying transport endpoint, e.g. to wrap it in a
// FaultTransport.
func (c *Comm) Endpoint() Endpoint { return c.ep }

// Abort tears the transport down abruptly (Endpoint.Abort); used to model a
// crashed rank in failure-path tests and demos.
func (c *Comm) Abort() { c.ep.Abort() }

// Send delivers raw bytes to a peer.
func (c *Comm) Send(to int, tag uint32, payload []byte) error {
	return c.ep.Send(to, tag, Msg{Buf: payload})
}

// send is the collective send path: m goes out carrying the open flow's
// trace context if this is the collective's first frame to that peer (see
// BeginFlow), unstamped otherwise.
func (c *Comm) send(to int, tag uint32, m Msg) error {
	m.Ctx = c.flowCtx(to)
	return c.ep.Send(to, tag, m)
}

// Recv receives raw bytes from a peer.
func (c *Comm) Recv(from int, tag uint32) ([]byte, error) { return c.ep.Recv(from, tag) }

// SendFloats delivers a float32 vector to a peer.
func (c *Comm) SendFloats(to int, tag uint32, data []float32) error {
	return c.ep.Send(to, tag, Msg{Buf: floatsToBytes(data)})
}

// RecvFloats receives a float32 vector from a peer.
func (c *Comm) RecvFloats(from int, tag uint32) ([]float32, error) {
	b, err := c.ep.Recv(from, tag)
	if err != nil {
		return nil, err
	}
	return bytesToFloats(b)
}

// Tagged is one out-of-band message delivered through a tag subscription
// (Comm.Subscribe): the sender's rank in the subscribing communicator's
// numbering plus the raw payload.
type Tagged struct {
	From    int
	Payload []byte
}

// subscriber is the optional endpoint capability behind Comm.Subscribe.
type subscriber interface {
	Subscribe(tag uint32, buf int) (<-chan Tagged, error)
}

// unwrapper lets endpoint decorators (fault injection, instrumentation,
// sub-communicators) expose the transport they wrap, so the terminal
// transport's optional capabilities can be found through the chain.
type unwrapper interface {
	Unwrap() Endpoint
}

// findCapability walks the decorator chain from ep looking for the asked-for
// optional interface.
func findCapability[T any](ep Endpoint) (T, bool) {
	for e := ep; e != nil; {
		if cap, ok := e.(T); ok {
			return cap, true
		}
		u, ok := e.(unwrapper)
		if !ok {
			break
		}
		e = u.Unwrap()
	}
	var zero T
	return zero, false
}

// Subscribe diverts every future incoming frame carrying tag into the
// returned channel instead of the Recv path, so a side channel (telemetry
// pushes) can share the transport with collectives without violating the
// sequential-Recv-per-peer rule. The channel is buffered with buf slots;
// frames arriving while it is full are dropped — subscriptions are for
// lossy, latest-wins traffic, never for protocol frames. The channel is
// never closed; stop reading when the job is done. Only one subscription
// per tag is allowed, and the tag must be below TagBase. Transports without
// subscription support return an error.
func (c *Comm) Subscribe(tag uint32, buf int) (<-chan Tagged, error) {
	if tag >= TagBase {
		return nil, fmt.Errorf("mpi: subscribe tag %#x is in the collective tag space", tag)
	}
	if s, ok := findCapability[subscriber](c.ep); ok {
		return s.Subscribe(tag, buf)
	}
	return nil, fmt.Errorf("mpi: transport %T does not support subscriptions", c.ep)
}

// Tag spaces for the built-in protocols. User messages should use tags
// below TagBase.
const (
	// TagTelemetry is the conventional side-channel tag for live telemetry
	// pushes (telemetry.Publisher -> the rank-0 metrics server).
	TagTelemetry uint32 = 0x0054454c // "TEL"

	// TagJoin is the side-channel tag a healed or restarted process sends
	// join requests on (mpi.Rejoin -> the leader's JoinListener). Like all
	// sub-TagBase tags it is lossy by design: joiners retry with backoff.
	TagJoin uint32 = 0x004a4f49 // "JOI"

	// TagJoinReply is the side-channel tag the leader answers join requests
	// on (admit, stale-epoch refresh, or permanent rejection).
	TagJoinReply uint32 = 0x004a5250 // "JRP"

	// TagBase is the first tag reserved for collective protocols.
	TagBase uint32 = 1 << 24

	tagBarrier   = TagBase + 0x010000
	tagBcast     = TagBase + 0x020000
	tagAllreduce = TagBase + 0x030000
	tagAllgather = TagBase + 0x040000
	tagGather    = TagBase + 0x050000
	// tagShrink namespaces the survivor-agreement protocol: 16 tags per
	// epoch (rounds + commit), up to 4096 epochs within the window.
	tagShrink = TagBase + 0x060000
	// tagGrow namespaces the two-phase admit protocol (propose, ack): 16
	// tags per epoch, sharing the shrink epoch space.
	tagGrow = TagBase + 0x070000
)
