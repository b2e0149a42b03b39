package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dnnperf/internal/horovod"
	"dnnperf/internal/mpi"
	"dnnperf/internal/telemetry"
	"dnnperf/internal/telemetry/detect"
)

// expositionLine matches one sample of the Prometheus text format 0.0.4:
// name{label="value",...} value
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9.eE+\-]+$`)

// TestWriteExpositionFormat: every line parses, TYPE lines appear exactly
// once per family, labels carry the rank, and histogram buckets are
// cumulative with a closing +Inf.
func TestWriteExpositionFormat(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("mpi.bytes_sent", telemetry.L("peer", "1")).Add(100)
	reg.Counter("mpi.bytes_sent", telemetry.L("peer", "2")).Add(10)
	reg.Gauge("train.lr").Set(0.1)
	h := reg.Histogram("train.step_ns", []int64{10, 20})
	h.Observe(5)
	h.Observe(15)
	h.Observe(99)
	snapA := reg.Snapshot()
	snapA.Rank = 0
	snapB := reg.Snapshot()
	snapB.Rank = 1

	var buf strings.Builder
	if err := WriteExposition(&buf, []telemetry.Snapshot{snapA, snapB}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	typeSeen := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Errorf("malformed TYPE line: %q", line)
				continue
			}
			typeSeen[parts[2]]++
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("line does not parse as exposition format: %q", line)
		}
	}
	for fam, typ := range map[string]string{
		"mpi_bytes_sent": "counter",
		"train_lr":       "gauge",
		"train_step_ns":  "histogram",
	} {
		if typeSeen[fam] != 1 {
			t.Errorf("# TYPE %s seen %d times, want 1", fam, typeSeen[fam])
		}
		if !strings.Contains(out, fmt.Sprintf("# TYPE %s %s", fam, typ)) {
			t.Errorf("missing TYPE %s %s in:\n%s", fam, typ, out)
		}
	}
	// Label-set series stay distinct and rank-labelled.
	for _, want := range []string{
		`mpi_bytes_sent{peer="1",rank="0"} 100`,
		`mpi_bytes_sent{peer="2",rank="1"} 10`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing series %q in:\n%s", want, out)
		}
	}
	// Cumulative buckets: 1 (<=10), 2 (<=20), 3 (+Inf); sum and count close
	// the family.
	for _, want := range []string{
		`train_step_ns_bucket{rank="0",le="10"} 1`,
		`train_step_ns_bucket{rank="0",le="20"} 2`,
		`train_step_ns_bucket{rank="0",le="+Inf"} 3`,
		`train_step_ns_sum{rank="0"} 119`,
		`train_step_ns_count{rank="0"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing histogram line %q in:\n%s", want, out)
		}
	}
}

// TestStoreCapsAndAges: the store keeps the freshest snapshot per rank,
// trims trace events to the cap (oldest first), and reports staleness.
func TestStoreCapsAndAges(t *testing.T) {
	s := NewStore(3)
	push := func(rank int, steps int64, names ...string) {
		evs := make([]telemetry.TraceEvent, len(names))
		for i, n := range names {
			evs[i] = telemetry.TraceEvent{Name: n, Ph: "i", PID: rank}
		}
		s.Update(telemetry.Bundle{
			Snapshot: telemetry.Snapshot{Rank: rank, Counters: map[string]int64{"steps": steps}},
			Events:   evs,
		})
	}
	push(1, 1, "a", "b")
	push(1, 2, "c", "d")
	push(0, 7)

	snaps := s.Snapshots()
	if len(snaps) != 2 || snaps[0].Rank != 0 || snaps[1].Rank != 1 {
		t.Fatalf("snapshots = %+v, want ranks [0 1]", snaps)
	}
	if snaps[1].Counters["steps"] != 2 {
		t.Errorf("rank 1 kept stale snapshot: %+v", snaps[1])
	}
	var names []string
	for _, ev := range s.Events() {
		if ev.Ph == "i" {
			names = append(names, ev.Name)
		}
	}
	if got := strings.Join(names, ""); got != "bcd" {
		t.Errorf("capped events = %q, want bcd (oldest dropped first)", got)
	}
	ages := s.Ages()
	if len(ages) != 2 || ages[1] < 0 || ages[1] > time.Minute {
		t.Errorf("ages = %v", ages)
	}
}

// TestHandlers drives every route through the mux without a real listener.
func TestHandlers(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("work").Add(3)
	health := telemetry.NewHealth()
	det := detect.New(nil, nil)
	srv := New(NewStore(0), health, det)
	srv.Store().Update(telemetry.Bundle{
		Snapshot: reg.Snapshot(),
		Events:   []telemetry.TraceEvent{{Name: "span", Ph: "X", PID: 0, TID: 1, Dur: 5}},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, string, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
	}

	// /healthz is 503 while starting, 200 once the supervisor reports ok.
	code, ctype, body := get("/healthz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("starting /healthz = %d, want 503", code)
	}
	if !strings.Contains(ctype, "application/json") {
		t.Errorf("/healthz content type %q", ctype)
	}
	var hz struct {
		Status  string `json:"status"`
		Healthy bool   `json:"healthy"`
		Ranks   int    `json:"ranks"`
	}
	if err := json.Unmarshal([]byte(body), &hz); err != nil {
		t.Fatalf("/healthz body: %v\n%s", err, body)
	}
	if hz.Status != telemetry.HealthStarting || hz.Healthy || hz.Ranks != 1 {
		t.Errorf("/healthz = %+v", hz)
	}
	health.Set(telemetry.HealthOK, "world", 4)
	if code, _, body = get("/healthz"); code != http.StatusOK {
		t.Errorf("ok /healthz = %d, want 200\n%s", code, body)
	}

	code, ctype, body = get("/metrics")
	if code != http.StatusOK || !strings.Contains(ctype, "text/plain") {
		t.Errorf("/metrics code %d type %q", code, ctype)
	}
	if !strings.Contains(body, `work{rank="0"} 3`) {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if !strings.Contains(body, "telemetry_rank_age_seconds") {
		t.Errorf("/metrics missing staleness gauge:\n%s", body)
	}

	code, _, body = get("/metrics.json")
	var merged telemetry.MergedMetrics
	if code != http.StatusOK {
		t.Errorf("/metrics.json = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &merged); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	if merged.Totals["work"] != 3 {
		t.Errorf("/metrics.json totals = %v", merged.Totals)
	}

	code, _, body = get("/trace")
	var events []telemetry.TraceEvent
	if code != http.StatusOK {
		t.Errorf("/trace = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("/trace: %v", err)
	}
	var spans int
	for _, ev := range events {
		if ev.Name == "span" {
			spans++
		}
	}
	if spans != 1 {
		t.Errorf("/trace has %d span events, want 1:\n%s", spans, body)
	}
}

// TestLiveEndpointFourRanks is the end-to-end acceptance test: a 4-rank
// local TCP job runs horovod allreduces, every rank publishes over the MPI
// telemetry tag, and rank 0's HTTP endpoint serves a valid exposition
// including the mpi.* transport and horovod.* engine counters.
func TestLiveEndpointFourRanks(t *testing.T) {
	const n = 4
	base, err := mpi.StartLocalTCPJob(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range base {
			c.Close()
		}
	}()

	// Instrument each rank's transport so mpi.* counters exist, as mpirun
	// does.
	regs := make([]*telemetry.Registry, n)
	comms := make([]*mpi.Comm, n)
	for r := 0; r < n; r++ {
		regs[r] = telemetry.New()
		comms[r] = mpi.NewComm(mpi.Instrument(base[r].Endpoint(), regs[r]))
		comms[r].SetTelemetry(regs[r]) // mpi.allreduce{alg=...} counters
	}

	// Rank 0 hosts the plane: store + detector + HTTP server + collector.
	health := telemetry.NewHealth()
	det := detect.New(regs[0], nil)
	srv := New(NewStore(0), health, det)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ch, err := comms[0].Subscribe(mpi.TagTelemetry, 4*n)
	if err != nil {
		t.Fatal(err)
	}
	srv.Collect(ch)

	// Every rank: horovod engine over the instrumented comm, publisher
	// pushing to rank 0 (rank 0 short-circuits into its own store).
	pubs := make([]*telemetry.Publisher, n)
	for r := 0; r < n; r++ {
		r := r
		var sink func([]byte) error
		if r == 0 {
			sink = func(b []byte) error {
				bun, err := telemetry.DecodeBundle(b)
				if err != nil {
					return err
				}
				srv.Store().Update(bun)
				return nil
			}
		} else {
			sink = func(b []byte) error { return comms[r].Send(0, mpi.TagTelemetry, b) }
		}
		pubs[r] = telemetry.NewPublisher(regs[r], nil, sink,
			telemetry.PublisherOptions{Interval: time.Hour, Rank: r})
	}
	defer func() {
		for _, p := range pubs {
			p.Stop()
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			eng := horovod.NewEngine(comms[r], horovod.Config{
				CycleTime: 200 * time.Microsecond,
				Telemetry: regs[r],
			})
			for step := 0; step < 5; step++ {
				data := []float32{1, 2, 3, 4}
				if err := eng.Allreduce("grad/w", data); err != nil {
					errs[r] = err
					return
				}
				if data[0] != n {
					errs[r] = fmt.Errorf("step %d: allreduce got %v, want %d", step, data[0], n)
					return
				}
			}
			errs[r] = eng.Shutdown()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for _, p := range pubs {
		if err := p.Publish(); err != nil {
			t.Fatal(err)
		}
	}
	health.Set(telemetry.HealthOK, "world", n)

	// All four ranks must land in the store (the collector is async).
	deadline := time.Now().Add(2 * time.Second)
	for len(srv.Store().Snapshots()) < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(srv.Store().Snapshots()); got != n {
		t.Fatalf("store has %d ranks, want %d", got, n)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	out := string(body)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
	}
	// The paper's headline diagnostics are scrapable live: transport traffic
	// and the framework-requested vs engine-executed allreduce split, from
	// every rank.
	for r := 0; r < n; r++ {
		rank := fmt.Sprintf(`rank=%q`, strconv.Itoa(r))
		for _, fam := range []string{"mpi_bytes_sent", "mpi_allreduce", "horovod_framework_requests", "horovod_engine_allreduces"} {
			if !strings.Contains(out, fam) || !regexp.MustCompile(fam+`\{[^}]*`+rank).MatchString(out) {
				t.Errorf("/metrics missing %s series for rank %d", fam, r)
			}
		}
	}

	resp, err = http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d after HealthOK\n%s", resp.StatusCode, body)
	}
	var hz struct {
		Ranks int `json:"ranks"`
	}
	if err := json.Unmarshal(body, &hz); err != nil || hz.Ranks != n {
		t.Errorf("/healthz ranks = %d (err %v), want %d", hz.Ranks, err, n)
	}
}
