package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// TraceEvent is one event in the Chrome trace-event JSON schema (load via
// chrome://tracing or Perfetto). Timestamps and durations are microseconds.
// Every layer — real training runs and the trainsim simulator alike — emits
// onto this one schema, so measured and simulated timelines overlay in a
// single view: real ranks use pid = rank, simulated timelines use SimPID.
type TraceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	// ID links flow events ("s"/"t"/"f" phases): the producer's flow-start
	// and every consumer's flow-finish that carry the same id are drawn as
	// one arrow across process lanes.
	ID uint64 `json:"id,omitempty"`
	// BP is the flow bind point ("e" binds a flow-finish to the enclosing
	// slice rather than the next one).
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace lane (tid) conventions shared across layers, so compute and
// communication land on comparable rows for every producer.
const (
	// CommLane is the tid used for communication events (fused allreduces),
	// in both real engine traces and simulated timelines.
	CommLane = 99
	// SimPID is the pid simulated timelines are emitted under, keeping them
	// distinct from real ranks (pid = rank) when traces are overlaid.
	SimPID = 1000
)

// ProcessName builds the metadata event that names a pid in trace viewers.
func ProcessName(pid int, name string) TraceEvent {
	return TraceEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name}}
}

// WriteChromeTrace renders events as a Chrome trace-event JSON array.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	if events == nil {
		events = []TraceEvent{}
	}
	return json.NewEncoder(w).Encode(events)
}

// WriteChromeTraceTruncated renders events in the Chrome trace object form
// ({"traceEvents": [...]}) with an explicit "truncated": true marker — the
// partial-output format the exporters use on error paths, so an aborted run
// leaves an openable, honestly-labeled timeline instead of nothing.
// Trace viewers accept both the array and the object container.
func WriteChromeTraceTruncated(w io.Writer, events []TraceEvent) error {
	if events == nil {
		events = []TraceEvent{}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
		Truncated   bool         `json:"truncated"`
	}{events, true})
}

// Tracer records spans and instants against a fixed epoch (its creation
// time). Emission appends under a mutex — tracing is opt-in and orders of
// magnitude off the per-op hot path; a nil *Tracer is a no-op on every
// method so call sites need no guards.
type Tracer struct {
	mu     sync.Mutex
	pid    int
	epoch  time.Time
	events []TraceEvent
	// fr, when set, receives a copy of every recorded event into its
	// fixed-size ring — the crash-surviving flight recorder.
	fr *FlightRecorder
	// ringOnly suppresses the unbounded events slice: the tracer records
	// into the flight recorder alone. This is the always-on mode for runs
	// that did not ask for a -trace export but still want post-mortems.
	ringOnly bool
}

// NewTracer returns a tracer whose timestamps are relative to now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// SetPID sets the pid stamped on every event (convention: the mpi rank).
func (t *Tracer) SetPID(pid int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.pid = pid
	for i := range t.events {
		t.events[i].PID = pid
	}
	t.mu.Unlock()
}

// SetFlightRecorder attaches a ring buffer that mirrors every event the
// tracer records from now on. Pass ringOnly=true to stop accumulating the
// unbounded in-memory timeline as well — the tracer then costs a bounded,
// constant amount of memory no matter how long the run lives.
func (t *Tracer) SetFlightRecorder(fr *FlightRecorder, ringOnly bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.fr = fr
	t.ringOnly = ringOnly
	t.mu.Unlock()
}

// FlightRecorder returns the attached ring, if any.
func (t *Tracer) FlightRecorder() *FlightRecorder {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fr
}

// record is the single sink every emission path funnels through.
// Caller holds t.mu.
func (t *Tracer) record(ev TraceEvent) {
	if t.fr != nil {
		t.fr.add(ev)
	}
	if !t.ringOnly {
		t.events = append(t.events, ev)
	}
}

// Span is an open interval started by Begin; End closes and records it.
// The zero Span is a no-op.
type Span struct {
	t     *Tracer
	name  string
	cat   string
	tid   int
	start time.Time
}

// Begin opens a span on lane tid. Returns a no-op span on a nil tracer.
func (t *Tracer) Begin(name, cat string, tid int) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, cat: cat, tid: tid, start: time.Now()}
}

// End closes the span and records it as a complete ("X") event.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.Complete(s.name, s.cat, s.tid, s.start, time.Since(s.start))
}

// Complete records a complete ("X") event from an explicit start and
// duration — for callers that already timed the interval themselves.
func (t *Tracer) Complete(name, cat string, tid int, start time.Time, d time.Duration) {
	t.CompleteArgs(name, cat, tid, start, d, nil)
}

// CompleteArgs is Complete with an args payload — used for the first-class
// elastic lifecycle spans (recovery, regrow, checkpoint, preemption) that
// annotate what happened, not just how long it took.
func (t *Tracer) CompleteArgs(name, cat string, tid int, start time.Time, d time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.record(TraceEvent{
		Name: name, Cat: cat, Ph: "X",
		TS:  float64(start.Sub(t.epoch)) / float64(time.Microsecond),
		Dur: float64(d) / float64(time.Microsecond),
		PID: t.pid, TID: tid,
		Args: args,
	})
	t.mu.Unlock()
}

// FlowStart records a flow-start ("s") event: the producing side of a
// cross-rank arrow. Every FlowFinish recorded anywhere with the same id is
// causally linked to it when traces are merged.
func (t *Tracer) FlowStart(name, cat string, tid int, id uint64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.record(TraceEvent{
		Name: name, Cat: cat, Ph: "s",
		TS:  float64(time.Since(t.epoch)) / float64(time.Microsecond),
		PID: t.pid, TID: tid, ID: id,
	})
	t.mu.Unlock()
}

// FlowFinish records a flow-finish ("f", bound to the enclosing slice):
// the consuming side of a cross-rank arrow started elsewhere with the same
// id.
func (t *Tracer) FlowFinish(name, cat string, tid int, id uint64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.record(TraceEvent{
		Name: name, Cat: cat, Ph: "f", BP: "e",
		TS:  float64(time.Since(t.epoch)) / float64(time.Microsecond),
		PID: t.pid, TID: tid, ID: id,
	})
	t.mu.Unlock()
}

// Instant records an instantaneous ("i") event, e.g. a recovery.
func (t *Tracer) Instant(name, cat string, args map[string]any) {
	t.InstantOn(name, cat, 0, args)
}

// InstantOn records an instantaneous ("i") event on a specific lane —
// e.g. a tensor-lifecycle DONE marker on that tensor's timeline lane.
func (t *Tracer) InstantOn(name, cat string, tid int, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.record(TraceEvent{
		Name: name, Cat: cat, Ph: "i",
		TS:  float64(time.Since(t.epoch)) / float64(time.Microsecond),
		PID: t.pid, TID: tid,
		Args: args,
	})
	t.mu.Unlock()
}

// ThreadName builds the metadata event that names a lane (tid) in trace
// viewers — e.g. one lane per tensor in the Horovod timeline.
func ThreadName(tid int, name string) TraceEvent {
	return TraceEvent{Name: "thread_name", Ph: "M", TID: tid, Args: map[string]any{"name": name}}
}

// Emit appends a pre-built event (pid is overwritten with the tracer's).
// Simulated timelines use it to land on the shared schema.
func (t *Tracer) Emit(ev TraceEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	ev.PID = t.pid
	t.record(ev)
	t.mu.Unlock()
}

// Events returns a copy of everything recorded so far.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceEvent(nil), t.events...)
}

// AppendEventsSince appends the events recorded at index cursor and later
// to dst and returns it plus the new cursor — the incremental read the live
// Publisher uses so each push carries only the delta since the previous
// one, into a reused buffer.
func (t *Tracer) AppendEventsSince(dst []TraceEvent, cursor int) ([]TraceEvent, int) {
	if t == nil {
		return dst, cursor
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if cursor < 0 {
		cursor = 0
	}
	if cursor >= len(t.events) {
		return dst, len(t.events)
	}
	return append(dst, t.events[cursor:]...), len(t.events)
}
