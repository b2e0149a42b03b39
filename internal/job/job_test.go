package job

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestLibraryJobSpecsValid loads every committed mpirun job spec, so a
// schema change that orphans examples/jobs fails here and not in a CI smoke
// job — and pins that each spells out what mpirun's retired flags used to
// imply instead of leaning on a launcher default.
func TestLibraryJobSpecsValid(t *testing.T) {
	paths, err := filepath.Glob("../../examples/jobs/*.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 4 {
		t.Fatalf("job spec library too small: %d files", len(paths))
	}
	for _, path := range paths {
		spec, err := LoadSpec(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if spec.Ranks() < 2 || spec.RecvTimeout <= 0 || spec.IntraThreads != 2 {
			t.Errorf("%s: ranks=%d recv_timeout=%v intra_threads=%d — the gang, the deadline and the executor width must be explicit",
				path, spec.Ranks(), spec.RecvTimeout.D(), spec.IntraThreads)
		}
		if spec.Elastic && spec.LRPolicy != "scaled" {
			t.Errorf("%s: elastic spec with lr_policy %q, want scaled (the rate must follow the shrunk world)", path, spec.LRPolicy)
		}
	}
}

// TestLibraryWorkloadsValid loads every committed dnnsched workload, so a
// schema change that orphans examples/workloads fails here.
func TestLibraryWorkloadsValid(t *testing.T) {
	paths, err := filepath.Glob("../../examples/workloads/*.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no workload files in examples/workloads")
	}
	for _, path := range paths {
		if _, err := LoadWorkload(path); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

func TestSpecDefaultsAndValidate(t *testing.T) {
	spec, err := ParseSpec([]byte("name: demo\nelastic: true\n"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Tenant != "default" || spec.Nodes != 1 || spec.PPN != 1 {
		t.Fatalf("defaults not applied: %+v", spec)
	}
	if spec.Model != "resnet50" || spec.Steps != 8 || spec.Seed != 42 {
		t.Fatalf("workload defaults not applied: %+v", spec)
	}
	if spec.CkptEvery != 2 {
		t.Fatalf("elastic should default ckpt_every=2, got %d", spec.CkptEvery)
	}

	if _, err := ParseSpec([]byte("lr_policy: quadratic\n")); err == nil {
		t.Fatal("bad lr_policy accepted")
	}
	if _, err := ParseSpec([]byte("nmae: x\n")); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := ParseSpec([]byte("die_rank: 5\ndie_step: 2\n")); err == nil {
		t.Fatal("out-of-range die_rank accepted")
	}
	if _, err := ParseSpec([]byte("regrow: true\n")); err == nil {
		t.Fatal("regrow without elastic accepted")
	}
}

// TestTCPOptionsRendered pins the TCP deadlines a spec renders, the ones a
// Fleet's tcp gang and an mpirun worker process both dial with.
func TestTCPOptionsRendered(t *testing.T) {
	for _, tc := range []struct {
		yaml string
		want time.Duration
	}{
		{"name: demo\n", time.Second},
		{"name: demo\nrecv_timeout: 300ms\n", 300 * time.Millisecond},
	} {
		spec, err := ParseSpec([]byte(tc.yaml))
		if err != nil {
			t.Fatal(err)
		}
		opts := spec.TCPOptions()
		if opts.RecvTimeout != tc.want || opts.DrainTimeout != 200*time.Millisecond {
			t.Errorf("%q: recv %v drain %v, want recv %v drain 200ms", tc.yaml, opts.RecvTimeout, opts.DrainTimeout, tc.want)
		}
	}
}

func TestHandleTransitions(t *testing.T) {
	h := &Handle{Spec: Spec{Name: "x"}}
	for _, next := range []State{Admitted, Running, Preempting, Pending, Regrowing, Running, Done} {
		if err := h.To(next); err != nil {
			t.Fatalf("legal transition rejected: %v", err)
		}
	}
	if !h.Terminal() {
		t.Fatal("Done should be terminal")
	}
	if err := h.To(Running); err == nil {
		t.Fatal("transition out of Done accepted")
	}
	h2 := &Handle{}
	if err := h2.To(Running); err == nil {
		t.Fatal("Pending -> Running accepted (must pass through Admitted)")
	}
}

func TestWorkloadValidate(t *testing.T) {
	if _, err := ParseWorkload([]byte("name: empty\ncluster:\n  nodes: 2\n")); err == nil {
		t.Fatal("workload with no jobs accepted")
	}
	w, err := ParseWorkload([]byte("synth:\n  jobs: 10\ncluster:\n  nodes: 2\n  slots_per_node: 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if w.Synth.Tenants != 3 || w.Seed != 1 {
		t.Fatalf("synth defaults not applied: %+v", w)
	}
	if w.PreemptLatency.D() != 750*time.Millisecond {
		t.Fatalf("preempt_latency default wrong: %v", w.PreemptLatency.D())
	}
}

// fixedEstimator avoids trainsim cost in pure scheduler-policy tests.
type fixedEstimator struct{ d time.Duration }

func (f fixedEstimator) IterTime(*Spec) (time.Duration, error) { return f.d, nil }

func TestRunSimDeterministicAtScale(t *testing.T) {
	w := func() *Workload {
		return &Workload{
			Name:    "det",
			Seed:    7,
			Cluster: ClusterSpec{Nodes: 4, SlotsPerNode: 8},
			Synth:   &SynthSpec{Jobs: 1000, Tenants: 3},
		}
	}
	r1, err := RunSim(w(), NewSimBackend(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSim(w(), NewSimBackend(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := r1.JSON()
	b2, _ := r2.JSON()
	if !bytes.Equal(b1, b2) {
		t.Fatal("same seed produced different reports")
	}

	if r1.Jobs != 1000 {
		t.Fatalf("jobs = %d, want 1000", r1.Jobs)
	}
	if r1.Done+r1.Evicted+r1.Failed != r1.Jobs {
		t.Fatalf("unaccounted jobs: done=%d evicted=%d failed=%d of %d",
			r1.Done, r1.Evicted, r1.Failed, r1.Jobs)
	}
	if r1.Failed != 0 {
		t.Fatalf("%d simulated jobs failed", r1.Failed)
	}
	if r1.Deadlocks != 0 {
		t.Fatalf("gang deadlocks: %d", r1.Deadlocks)
	}
	if len(r1.Tenants) != 3 {
		t.Fatalf("tenants = %d, want 3", len(r1.Tenants))
	}
	for i := 1; i < len(r1.UtilizationCurve); i++ {
		prev, cur := r1.UtilizationCurve[i-1], r1.UtilizationCurve[i]
		if cur.AtNS < prev.AtNS || cur.UsedSlotNS < prev.UsedSlotNS {
			t.Fatalf("utilization curve not monotone at %d: %+v -> %+v", i, prev, cur)
		}
	}
	if r1.Utilization <= 0 || r1.Utilization > 1 {
		t.Fatalf("utilization %v outside (0,1]", r1.Utilization)
	}

	// A different seed must change the schedule (sanity that the seed matters).
	w3 := w()
	w3.Seed = 8
	r3, err := RunSim(w3, NewSimBackend(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b3, _ := r3.JSON()
	if bytes.Equal(b1, b3) {
		t.Fatal("different seeds produced identical reports")
	}
}

func TestRunSimPreemption(t *testing.T) {
	// One low-priority elastic gang filling the cluster, then a
	// high-priority job arrives mid-run: the victim must park, the
	// high-priority job run, and the victim resume and finish.
	w := &Workload{
		Name:    "preempt",
		Cluster: ClusterSpec{Nodes: 2, SlotsPerNode: 2},
		Jobs: []Spec{
			{Name: "low", Tenant: "batch", Nodes: 2, PPN: 2, Steps: 1000, Elastic: true},
			{Name: "high", Tenant: "prod", Priority: 5, Nodes: 2, PPN: 2, Steps: 10,
				SubmitAt: Duration(2 * time.Second)},
		},
	}
	rep, err := RunSim(w, fixedEstimator{50 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != 2 || rep.Failed != 0 || rep.Evicted != 0 {
		t.Fatalf("done=%d failed=%d evicted=%d, want all done", rep.Done, rep.Failed, rep.Evicted)
	}
	if rep.Preemptions != 1 {
		t.Fatalf("preemptions = %d, want 1", rep.Preemptions)
	}
	var low, high JobSummary
	for _, j := range rep.PerJob {
		switch j.Name {
		case "low":
			low = j
		case "high":
			high = j
		}
	}
	if low.Preemptions != 1 || low.DoneSteps != 1000 {
		t.Fatalf("low: %+v", low)
	}
	// The high-priority job must not wait for the low job's full runtime.
	if wait := high.StartNS - high.SubmitNS; wait > int64(5*time.Second) {
		t.Fatalf("high waited %v despite preemption", time.Duration(wait))
	}
	joined := strings.Join(rep.EventLog, "\n")
	for _, want := range []string{"preempt job=0", "park job=0", "resume=true"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("event log missing %q:\n%s", want, joined)
		}
	}
}

func TestRunSimRigidJobsNotPreempted(t *testing.T) {
	w := &Workload{
		Name:    "rigid",
		Cluster: ClusterSpec{Nodes: 1, SlotsPerNode: 2},
		Jobs: []Spec{
			{Name: "rigid", Nodes: 1, PPN: 2, Steps: 100}, // not elastic
			{Name: "high", Priority: 9, Nodes: 1, PPN: 2, Steps: 5,
				SubmitAt: Duration(time.Second)},
		},
	}
	rep, err := RunSim(w, fixedEstimator{50 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Preemptions != 0 {
		t.Fatalf("rigid job was preempted (%d preemptions)", rep.Preemptions)
	}
	if rep.Done != 2 {
		t.Fatalf("done = %d, want 2 (high runs after rigid finishes)", rep.Done)
	}
}

func TestRunSimInfeasibleEvicted(t *testing.T) {
	w := &Workload{
		Name:    "infeasible",
		Cluster: ClusterSpec{Nodes: 2, SlotsPerNode: 2},
		Jobs: []Spec{
			{Name: "toobig", Nodes: 4, PPN: 2, Steps: 5},
			{Name: "ok", Nodes: 1, PPN: 1, Steps: 5},
		},
	}
	rep, err := RunSim(w, fixedEstimator{time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Evicted != 1 || rep.Done != 1 {
		t.Fatalf("evicted=%d done=%d, want 1/1", rep.Evicted, rep.Done)
	}
}
