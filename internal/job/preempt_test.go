package job

import (
	"testing"
	"time"

	"dnnperf/internal/train"
)

// TestRealPreemptionRoundTrip is the end-to-end preemption contract: a
// low-priority 4-rank elastic job is preempted mid-run by a high-priority
// arrival, halts cooperatively at a step boundary, checkpoints, parks while
// the high-priority gang runs, then regrows to its full world and finishes
// its budget — with every rank agreeing on the final weights CRC, and that
// CRC identical to an uninterrupted control run of the same spec. Bit-exact
// or bust.
//
// The job pins allreduce_alg to recursive doubling, whose pairwise sums do
// not depend on where an element sits in the fused buffer. Under auto/ring
// two *undisturbed* 4-rank runs already differ in the last bits: which
// gradients fuse together is decided by negotiation timing, and the ring's
// summation order depends on the chunk an element lands in (ROADMAP item 8;
// the constant fingerprint hid this until PR 14). The round trip itself —
// halt, checkpoint, park, restore, re-shard — is what this test holds exact.
func TestRealPreemptionRoundTrip(t *testing.T) {
	low := Spec{
		Name: "low", Tenant: "batch", Nodes: 2, PPN: 2,
		Steps: 60, Elastic: true, CkptEvery: 2,
		CycleTime:    Duration(200 * time.Microsecond),
		AllreduceAlg: "recursive_doubling",
	}
	high := Spec{
		Name: "high", Tenant: "prod", Priority: 5, Nodes: 2, PPN: 2,
		Steps: 6, CycleTime: Duration(200 * time.Microsecond),
		SubmitAt: Duration(150 * time.Millisecond),
	}
	w := &Workload{
		Name:    "e2e-preempt",
		Cluster: ClusterSpec{Nodes: 2, SlotsPerNode: 2},
		Jobs:    []Spec{low, high},
	}
	rep, handles, err := RunRealHandles(w, InprocBackend{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != 2 || rep.Failed != 0 || rep.Evicted != 0 {
		t.Fatalf("done=%d failed=%d evicted=%d event_log:\n%v",
			rep.Done, rep.Failed, rep.Evicted, rep.EventLog)
	}
	var lowH, highH *Handle
	for _, h := range handles {
		switch h.Spec.Name {
		case "low":
			lowH = h
		case "high":
			highH = h
		}
	}
	if lowH.Preemptions < 1 {
		t.Fatalf("low-priority job was never preempted; event log:\n%v", rep.EventLog)
	}
	if lowH.Result == nil || lowH.Result.FinalStep != 60 {
		t.Fatalf("low did not finish its budget: %+v", lowH.Result)
	}
	if highH.Result == nil || highH.Result.FinalStep != 6 || highH.Result.WorldSize != 4 {
		t.Fatalf("high result: %+v", highH.Result)
	}

	// Every rank of the regrown final segment must agree on the weights.
	var crcs []uint32
	for _, pr := range lowH.Result.PerRank {
		if pr != nil {
			crcs = append(crcs, pr.WeightsCRC)
		}
	}
	if len(crcs) != 4 {
		t.Fatalf("final segment has %d rank results, want 4", len(crcs))
	}
	for _, crc := range crcs {
		if crc != crcs[0] {
			t.Fatalf("weights CRC disagreement across ranks: %v", crcs)
		}
	}

	// Control: the identical spec run uninterrupted lands on the same CRC —
	// the preempt → checkpoint → park → regrow cycle is bit-exact.
	control := low
	control.Name = "control"
	control.CkptDir = t.TempDir()
	if err := control.Validate(); err != nil {
		t.Fatal(err)
	}
	rc := &RunContext{Spec: control}
	cres, err := InprocBackend{}.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Outcome != train.OutcomeClean.String() {
		t.Fatalf("control outcome %q", cres.Outcome)
	}
	if cres.WeightsCRC != crcs[0] {
		t.Fatalf("preempted run CRC %08x != control CRC %08x (round trip not bit-exact)",
			crcs[0], cres.WeightsCRC)
	}
}
