package telemetry

import (
	"encoding/json"
	"io"
	"os"
	"sync"
)

// DefaultFlightRecorderEvents is the ring capacity a zero-capacity
// NewFlightRecorder gets: enough to hold the last few hundred training
// steps' worth of spans and flow events on one rank.
const DefaultFlightRecorderEvents = 8192

// FlightRecorder is a fixed-size ring of the most recent trace events on
// one rank. It is always on and always cheap — recording is a copy into a
// preallocated slot under a mutex, no allocation, no I/O — so a rank that
// dies (PeerError, panic, eviction, SIGTERM) can dump the final moments of
// its timeline even when no full trace export was requested.
//
// Attach it to a Tracer with Tracer.SetFlightRecorder; every event the
// tracer records is mirrored into the ring. The zero-value methods on a nil
// *FlightRecorder are no-ops.
type FlightRecorder struct {
	mu      sync.Mutex
	buf     []TraceEvent
	head    int // next write position
	n       int // filled slots (≤ len(buf))
	dropped uint64
}

// NewFlightRecorder returns a recorder retaining the last capacity events
// (capacity ≤ 0 selects DefaultFlightRecorderEvents).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightRecorderEvents
	}
	return &FlightRecorder{buf: make([]TraceEvent, capacity)}
}

// add records one event, overwriting the oldest when full. Called by the
// owning Tracer with its own lock held.
func (f *FlightRecorder) add(ev TraceEvent) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.buf[f.head] = ev
	f.head++
	if f.head == len(f.buf) {
		f.head = 0
	}
	if f.n < len(f.buf) {
		f.n++
	} else {
		f.dropped++
	}
	f.mu.Unlock()
}

// Len reports how many events the ring currently holds.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Events returns the retained events, oldest first.
func (f *FlightRecorder) Events() []TraceEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]TraceEvent, 0, f.n)
	start := f.head - f.n
	if start < 0 {
		start += len(f.buf)
	}
	for i := 0; i < f.n; i++ {
		out = append(out, f.buf[(start+i)%len(f.buf)])
	}
	return out
}

// FlightDump is the on-disk / over-HTTP form of a flight-recorder dump: the
// retained tail of one rank's timeline plus why it was taken. Events use
// the same Chrome trace-event schema as a full export, so a dump opens in
// the same viewers (wrap as {"traceEvents": events} if a viewer insists on
// the object container).
type FlightDump struct {
	FlightRecorder bool         `json:"flightRecorder"`
	Rank           int          `json:"rank"`
	Reason         string       `json:"reason"`
	Dropped        uint64       `json:"dropped_events"`
	Events         []TraceEvent `json:"events"`
}

// Dump snapshots the ring into a FlightDump.
func (f *FlightRecorder) Dump(rank int, reason string) FlightDump {
	d := FlightDump{FlightRecorder: true, Rank: rank, Reason: reason, Events: f.Events()}
	if d.Events == nil {
		d.Events = []TraceEvent{}
	}
	if f != nil {
		f.mu.Lock()
		d.Dropped = f.dropped
		f.mu.Unlock()
	}
	return d
}

// WriteDump renders the dump as JSON.
func (f *FlightRecorder) WriteDump(w io.Writer, rank int, reason string) error {
	return json.NewEncoder(w).Encode(f.Dump(rank, reason))
}

// DumpToFile writes the dump to path, best-effort atomic (single write).
func (f *FlightRecorder) DumpToFile(path string, rank int, reason string) error {
	if f == nil {
		return nil
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.WriteDump(out, rank, reason); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
