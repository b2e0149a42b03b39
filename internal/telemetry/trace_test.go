package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestTracerSpansAndInstants(t *testing.T) {
	tr := NewTracer()
	tr.SetPID(2)
	sp := tr.Begin("fwd:conv2d", "compute", 0)
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Complete("allreduce[3 tensors]", "comm", CommLane, time.Now().Add(-time.Millisecond), time.Millisecond)
	tr.Instant("recovery", "train", map[string]any{"old": 4, "new": 3})

	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("%d events, want 3", len(evs))
	}
	if evs[0].Ph != "X" || evs[0].Name != "fwd:conv2d" || evs[0].PID != 2 {
		t.Fatalf("span event: %+v", evs[0])
	}
	if evs[0].Dur < 900 { // at least ~1ms in µs
		t.Fatalf("span too short: %v µs", evs[0].Dur)
	}
	if evs[1].TID != CommLane {
		t.Fatalf("comm event on tid %d", evs[1].TID)
	}
	if evs[2].Ph != "i" || evs[2].Args["old"] != 4 {
		t.Fatalf("instant event: %+v", evs[2])
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin("x", "y", 0)
	sp.End()
	tr.Instant("i", "c", nil)
	tr.Complete("c", "d", 0, time.Now(), time.Second)
	tr.Emit(TraceEvent{Name: "e"})
	tr.SetPID(7)
	if tr.Events() != nil {
		t.Fatal("nil tracer must record nothing")
	}
}

func TestWriteChromeTraceFormat(t *testing.T) {
	events := []TraceEvent{
		{Name: "fwd:conv2d", Cat: "compute", Ph: "X", TS: 1000, Dur: 2000, PID: 0, TID: 0},
		ProcessName(SimPID, "trainsim"),
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 2 {
		t.Fatalf("%d events", len(decoded))
	}
	if decoded[0]["ph"] != "X" || decoded[0]["ts"].(float64) != 1000 {
		t.Fatalf("bad complete event: %v", decoded[0])
	}
	if decoded[1]["ph"] != "M" || decoded[1]["pid"].(float64) != SimPID {
		t.Fatalf("bad metadata event: %v", decoded[1])
	}
	// An empty timeline must still be a valid JSON array.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil || len(decoded) != 0 {
		t.Fatalf("empty trace: %q err %v", buf.String(), err)
	}
}

func TestSetPIDRestampsExistingEvents(t *testing.T) {
	tr := NewTracer()
	tr.Begin("a", "c", 0).End()
	tr.SetPID(5)
	tr.Begin("b", "c", 0).End()
	for _, ev := range tr.Events() {
		if ev.PID != 5 {
			t.Fatalf("event %q pid %d, want 5", ev.Name, ev.PID)
		}
	}
}
