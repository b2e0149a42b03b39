package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Snapshot is the point-in-time state of a Registry, tagged with the rank
// it was taken on. It is the unit of the end-of-job metrics gather: every
// rank encodes its snapshot, rank 0 collects and writes the merged file.
type Snapshot struct {
	Rank       int                          `json:"rank"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state. Individual values are
// read atomically; the snapshot as a whole is not a consistent cut across
// metrics. The update hot path (handle Inc/Add/Observe) never touches the
// registry lock, so snapshotting cannot contend with it.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	r.SnapshotInto(&s)
	return s
}

// SnapshotInto fills s with the registry's current state, reusing s's maps
// and per-histogram slices — the steady-state path of the live Publisher,
// which would otherwise rebuild every map at each push period. Registries
// are append-only, so overwriting entries in place is exact; s's Rank is
// left untouched.
func (r *Registry) SnapshotInto(s *Snapshot) {
	if s.Counters == nil {
		s.Counters = map[string]int64{}
	}
	if s.Gauges == nil {
		s.Gauges = map[string]float64{}
	}
	if s.Histograms == nil {
		s.Histograms = map[string]HistogramSnapshot{}
	}
	if r == nil {
		return
	}
	// Held while reading: registration (the only other lock holder) is
	// cold-path by contract, and the reads themselves are atomic loads.
	r.mu.Lock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := s.Histograms[name]
		h.snapshotInto(&hs)
		s.Histograms[name] = hs
	}
	r.mu.Unlock()
}

// MergedMetrics is the merged per-rank metrics document written by rank 0:
// every rank's snapshot plus job-wide counter totals (sums across ranks).
// Truncated marks a partial document written on an error path — the job
// died before the full gather, so ranks may be missing and counters stale.
type MergedMetrics struct {
	Ranks     []Snapshot       `json:"ranks"`
	Totals    map[string]int64 `json:"totals"`
	Truncated bool             `json:"truncated,omitempty"`
}

// Merge combines per-rank snapshots (sorted by rank) with summed counter
// totals. The sort is stable, so duplicate rank ids — which can only come
// from a numbering bug upstream, e.g. post-shrink snapshots tagged with
// renumbered ranks aliasing original ones — stay distinct and visible in
// input order instead of silently collapsing.
func Merge(snaps []Snapshot) MergedMetrics {
	sorted := append([]Snapshot(nil), snaps...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Rank < sorted[j].Rank })
	totals := map[string]int64{}
	for _, s := range sorted {
		for name, v := range s.Counters {
			totals[name] += v
		}
	}
	return MergedMetrics{Ranks: sorted, Totals: totals}
}

// WriteMetrics writes the merged per-rank metrics JSON document.
func WriteMetrics(w io.Writer, snaps []Snapshot) error {
	return writeMetrics(w, snaps, false)
}

// WriteMetricsTruncated writes the merged document with the explicit
// "truncated": true marker — the partial export an error path produces.
func WriteMetricsTruncated(w io.Writer, snaps []Snapshot) error {
	return writeMetrics(w, snaps, true)
}

func writeMetrics(w io.Writer, snaps []Snapshot, truncated bool) error {
	m := Merge(snaps)
	m.Truncated = truncated
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Bundle pairs one rank's metrics snapshot with its trace events — the
// blob each rank contributes to the end-of-job gather.
type Bundle struct {
	Snapshot Snapshot     `json:"snapshot"`
	Events   []TraceEvent `json:"events,omitempty"`
}

// Encode serializes the bundle.
func (b Bundle) Encode() ([]byte, error) { return json.Marshal(b) }

// DecodeBundle parses an encoded bundle.
func DecodeBundle(raw []byte) (Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(raw, &b); err != nil {
		return Bundle{}, fmt.Errorf("telemetry: decode bundle: %w", err)
	}
	return b, nil
}
