package mpi

import (
	"encoding/binary"
	"sync/atomic"

	"dnnperf/internal/telemetry"
)

// TraceCtx is the compact causal context a collective stamps on its frames:
// enough to link the sending rank's span to the receiving rank's span in a
// merged trace without any out-of-band correlation. It travels as Msg.Ctx
// through every endpoint and inside the transport frame (a flag bit plus
// traceCtxBytes on TCP, a struct field in-process), so propagation costs
// nothing when tracing is off and one small header when on.
type TraceCtx struct {
	// Step is the training step the collective belongs to (0 = unknown;
	// engine-level collectives outside a step keep it 0).
	Step uint32
	// Coll is the origin rank's collective sequence number — the
	// tensor/collective id within the run.
	Coll uint32
	// Origin is the rank that emitted the frame.
	Origin uint32
	// Span is the globally-unique flow id ((origin+1)<<32 | coll). The
	// origin's flow-start and every receiver's flow-finish carrying this id
	// render as one causal arrow across rank lanes.
	Span uint64
}

// traceCtxBytes is the wire size of an encoded TraceCtx.
const traceCtxBytes = 20

func (tc TraceCtx) encode(dst []byte) {
	binary.LittleEndian.PutUint32(dst[0:], tc.Step)
	binary.LittleEndian.PutUint32(dst[4:], tc.Coll)
	binary.LittleEndian.PutUint32(dst[8:], tc.Origin)
	binary.LittleEndian.PutUint64(dst[12:], tc.Span)
}

func decodeTraceCtx(src []byte) TraceCtx {
	return TraceCtx{
		Step:   binary.LittleEndian.Uint32(src[0:]),
		Coll:   binary.LittleEndian.Uint32(src[4:]),
		Origin: binary.LittleEndian.Uint32(src[8:]),
		Span:   binary.LittleEndian.Uint64(src[12:]),
	}
}

// TraceSink receives the context of every stamped frame a transport
// delivers through its Recv path (subscription side channels excluded).
type TraceSink func(from int, tag uint32, ctx TraceCtx)

// traceSinkSetter is the optional terminal-endpoint capability behind
// Comm.SetFlowTracer's receive side.
type traceSinkSetter interface {
	SetTraceSink(TraceSink)
}

// traceHook is the receive-side causal-trace observer both transports embed.
type traceHook struct {
	sink atomic.Pointer[TraceSink]
}

// SetTraceSink installs (nil clears) the observer.
func (h *traceHook) SetTraceSink(sink TraceSink) {
	if sink == nil {
		h.sink.Store(nil)
		return
	}
	h.sink.Store(&sink)
}

// observe reports a delivered stamped frame to the trace sink, if any.
func (h *traceHook) observe(from int, m frame) {
	if m.ctx.Span == 0 {
		return
	}
	if s := h.sink.Load(); s != nil {
		(*s)(from, m.tag, m.ctx)
	}
}

// flowState is the communicator's causal-tracing state. It is touched only
// on the collective caller's goroutine (collectives on one communicator are
// caller-serialized), so it needs no lock.
type flowState struct {
	tr  *telemetry.Tracer
	seq uint32
	cur TraceCtx
	// sent marks peers already stamped during the current collective: one
	// flow arrow per (origin, collective, peer), not one per segment.
	sent []bool
}

// SetFlowTracer enables cross-rank causal tracing on this communicator:
// collective sends stamp a TraceCtx into their frames and record flow-start
// events, and stamped frames received from peers record flow-finish events
// bound to whatever span is open when they arrive. Pass nil to disable.
// Every endpoint forwards Msg.Ctx, so this works unchanged through fault
// injection, instrumentation and split or shrunk communicators.
func (c *Comm) SetFlowTracer(tr *telemetry.Tracer) {
	if tr == nil {
		c.flow = nil
		c.setTraceSink(nil)
		return
	}
	c.flow = &flowState{tr: tr, sent: make([]bool, c.ep.Size())}
	c.setTraceSink(func(from int, tag uint32, ctx TraceCtx) {
		tr.FlowFinish("mpi.flow", "flow", telemetry.CommLane, ctx.Span)
	})
}

// setTraceSink installs (or clears) the receive-side sink on the terminal
// transport, found through the decorator chain like Subscribe.
func (c *Comm) setTraceSink(sink TraceSink) {
	if s, ok := findCapability[traceSinkSetter](c.ep); ok {
		s.SetTraceSink(sink)
	}
}

// BeginFlow opens a causally-traced collective: until EndFlow, the first
// frame sent to each peer carries the new context and records a flow-start.
// step annotates the context (0 when the caller has no step number). No-op
// unless SetFlowTracer armed the communicator.
func (c *Comm) BeginFlow(step int64) {
	f := c.flow
	if f == nil {
		return
	}
	f.seq++
	origin := uint32(c.ep.Rank())
	f.cur = TraceCtx{
		Step:   uint32(step),
		Coll:   f.seq,
		Origin: origin,
		Span:   uint64(origin+1)<<32 | uint64(f.seq),
	}
	if n := c.ep.Size(); n != len(f.sent) {
		f.sent = make([]bool, n)
	} else {
		for i := range f.sent {
			f.sent[i] = false
		}
	}
}

// EndFlow closes the current causally-traced collective.
func (c *Comm) EndFlow() {
	if f := c.flow; f != nil {
		f.cur = TraceCtx{}
	}
}

// flowCtx returns the context to stamp on a frame to peer `to`, marking the
// peer stamped and recording the flow-start. It is the zero context when no
// flow is open or the peer already got its arrow.
func (c *Comm) flowCtx(to int) TraceCtx {
	f := c.flow
	if f == nil || f.cur.Span == 0 || to < 0 || to >= len(f.sent) || f.sent[to] {
		return TraceCtx{}
	}
	f.sent[to] = true
	f.tr.FlowStart("mpi.flow", "flow", telemetry.CommLane, f.cur.Span)
	return f.cur
}
