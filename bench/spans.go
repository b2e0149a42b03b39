package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// maxSpans bounds the recorder's memory: exchange_small_inproc would
// otherwise record 512 spans per step for thousands of steps. Spans past
// the cap are counted, not kept.
const maxSpans = 300_000

// span is one timed call the benchmark made into a layer. ID is its index
// in the recorder plus one; Parent is the ID of the span that caused it
// (0 = none); spans of one step or repetition share a Trace id.
type span struct {
	Name   string
	Trace  int
	Parent int
	TID    int // rank, so the Chrome view has one lane per rank
	Start  time.Duration
	End    time.Duration // -1 while open
}

// recorder keeps spans in memory until the workload ends. A nil recorder
// records nothing, which is how the untraced runs call the same code.
type recorder struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (0 when not recording).
func (r *recorder) begin(name string, trace, parent, tid int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return 0
	}
	r.spans = append(r.spans, span{Name: name, Trace: trace, Parent: parent, TID: tid, Start: now, End: -1})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span whose interval the caller measured itself.
func (r *recorder) add(name string, trace, parent, tid int, start time.Time, d time.Duration) {
	id := r.begin(name, trace, parent, tid)
	if id == 0 {
		return
	}
	r.mu.Lock()
	s := &r.spans[id-1]
	s.Start = start.Sub(r.epoch)
	s.End = s.Start + d
	r.mu.Unlock()
}

// The readers below run once the workload has ended and nothing records any
// more; they hold the lock all the same.

// ms returns the durations, in milliseconds, of the finished spans called name.
func (r *recorder) ms(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// spanTotals is one row of the per-name summary.
type spanTotals struct {
	Name    string
	Count   int
	TotalMs float64
	SelfMs  float64 // total minus the part child spans cover
}

// summary adds up, per span name, total time and self time: a span's
// duration minus the union of its children's intervals inside it.
func (r *recorder) summary() []spanTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := r.spans
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*spanTotals{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		kids := children[i+1]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered time.Duration
		at := s.Start
		for _, k := range kids {
			from, to := k.Start, k.End
			if from < at {
				from = at
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				at = to
			}
		}
		t := byName[s.Name]
		if t == nil {
			t = &spanTotals{Name: s.Name}
			byName[s.Name] = t
		}
		t.Count++
		t.TotalMs += float64(s.End-s.Start) / 1e6
		t.SelfMs += float64(s.End-s.Start-covered) / 1e6
	}
	out := make([]spanTotals, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].TotalMs > out[b].TotalMs })
	return out
}

// selfMs is the summed self time of the spans called name.
func (r *recorder) selfMs(name string) float64 {
	for _, t := range r.summary() {
		if t.Name == name {
			return t.SelfMs
		}
	}
	return 0
}

// write saves the finished spans as Chrome trace JSON (chrome://tracing,
// Perfetto): complete events in microseconds, one lane per rank.
func (r *recorder) write(path string) error {
	type args struct {
		Trace  int `json:"trace"`
		ID     int `json:"id"`
		Parent int `json:"parent,omitempty"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
		Args args    `json:"args"`
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := r.spans
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			TID: s.TID, Args: args{Trace: s.Trace, ID: i + 1, Parent: s.Parent},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		TraceEvents []event `json:"traceEvents"`
		Dropped     int     `json:"droppedSpans"`
	}{events, r.dropped})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
