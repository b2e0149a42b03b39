package mpi

import (
	"strconv"

	"dnnperf/internal/telemetry"
)

// instrumentedEndpoint wraps a transport Endpoint and counts traffic through
// it: frames and bytes per peer, send/recv failures, and deadline hits. All
// handles are pre-registered at wrap time and indexed by rank, so the
// per-message cost is a bounds check plus atomic adds — no map lookups, no
// allocations on the hot path.
type instrumentedEndpoint struct {
	Endpoint

	framesSent []*telemetry.Counter // indexed by destination rank
	bytesSent  []*telemetry.Counter
	framesRecv []*telemetry.Counter // indexed by source rank
	bytesRecv  []*telemetry.Counter

	sendErrors   *telemetry.Counter
	recvErrors   *telemetry.Counter
	deadlineHits *telemetry.Counter
}

// Instrument wraps ep so every Send/Recv is counted in reg:
//
//	mpi.frames_sent{peer=N} / mpi.bytes_sent{peer=N}
//	mpi.frames_recv{peer=N} / mpi.bytes_recv{peer=N}
//	mpi.send_errors / mpi.recv_errors
//	mpi.deadline_hits   (transport deadline expiries, i.e. suspected-dead peers)
//
// A nil registry returns ep unchanged. The wrapper forwards Close and Abort
// to the wrapped endpoint (the Endpoint embed).
func Instrument(ep Endpoint, reg *telemetry.Registry) Endpoint {
	if reg == nil {
		return ep
	}
	p := ep.Size()
	ie := &instrumentedEndpoint{
		Endpoint:     ep,
		framesSent:   make([]*telemetry.Counter, p),
		bytesSent:    make([]*telemetry.Counter, p),
		framesRecv:   make([]*telemetry.Counter, p),
		bytesRecv:    make([]*telemetry.Counter, p),
		sendErrors:   reg.Counter("mpi.send_errors"),
		recvErrors:   reg.Counter("mpi.recv_errors"),
		deadlineHits: reg.Counter("mpi.deadline_hits"),
	}
	for peer := 0; peer < p; peer++ {
		l := telemetry.L("peer", strconv.Itoa(peer))
		ie.framesSent[peer] = reg.Counter("mpi.frames_sent", l)
		ie.bytesSent[peer] = reg.Counter("mpi.bytes_sent", l)
		ie.framesRecv[peer] = reg.Counter("mpi.frames_recv", l)
		ie.bytesRecv[peer] = reg.Counter("mpi.bytes_recv", l)
	}
	return ie
}

func (ie *instrumentedEndpoint) Send(to int, tag uint32, m Msg) error {
	// Measured before the call: an owned frame may be back in the pool — or
	// on another rank — by the time the inner Send returns.
	n := int64(len(m.Buf))
	if err := ie.Endpoint.Send(to, tag, m); err != nil {
		ie.sendErrors.Inc()
		ie.countDeadline(err)
		return err
	}
	if to >= 0 && to < len(ie.framesSent) {
		ie.framesSent[to].Inc()
		ie.bytesSent[to].Add(n)
	}
	return nil
}

func (ie *instrumentedEndpoint) Recv(from int, tag uint32) ([]byte, error) {
	b, err := ie.Endpoint.Recv(from, tag)
	if err != nil {
		ie.recvErrors.Inc()
		ie.countDeadline(err)
		return nil, err
	}
	if from >= 0 && from < len(ie.framesRecv) {
		ie.framesRecv[from].Inc()
		ie.bytesRecv[from].Add(int64(len(b)))
	}
	return b, nil
}

func (ie *instrumentedEndpoint) countDeadline(err error) {
	if pe, ok := AsPeerError(err); ok && pe.Timeout() {
		ie.deadlineHits.Inc()
	}
}

// Unwrap exposes the wrapped endpoint so optional capabilities (tag
// subscriptions) resolve through the instrumentation layer. Subscribed
// frames bypass the Recv counters: they are delivered by the transport's
// read loop, not through this wrapper.
func (ie *instrumentedEndpoint) Unwrap() Endpoint { return ie.Endpoint }
