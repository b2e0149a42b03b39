package job

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"dnnperf/internal/mpi"
	"dnnperf/internal/train"
)

var liveBackends = []Backend{InprocBackend{}, TCPBackend{}}

// settleGoroutines waits (bounded) for the goroutine count to fall back to
// baseline: everything a finished job started — engine loops, executor
// pools, socket readers, rejoin acceptors — must have exited.
func settleGoroutines(t *testing.T, baseline int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, baseline %d — the job leaked:\n%s",
				what, runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBackendRunLeaksNoGoroutines: a backend's Run owns everything it
// starts. Whether the job ends clean, preempted through RunContext.Preempt,
// or recovered from a DieRank crash, the process is back at its pre-run
// goroutine count afterwards — three jobs back to back, so a per-job leak
// cannot hide in scheduling noise.
func TestBackendRunLeaksNoGoroutines(t *testing.T) {
	die := 1
	for _, be := range liveBackends {
		for _, ending := range []string{"clean", "preempted", "recovered"} {
			t.Run(be.Name()+"/"+ending, func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				for i := 0; i < 3; i++ {
					rc := &RunContext{Spec: Spec{
						Name: ending, PPN: 3, Steps: 6,
						RecvTimeout: Duration(300 * time.Millisecond),
					}}
					switch ending {
					case "preempted":
						rc.Spec.Steps = 1000
						rc.OnStep = func(rank int, step int64, st train.StepStats) {
							if step >= 2 {
								rc.Preempt()
							}
						}
					case "recovered":
						rc.Spec.Elastic, rc.Spec.CkptDir = true, t.TempDir()
						rc.Spec.DieRank, rc.Spec.DieStep = &die, 3
					}
					if err := rc.Spec.Validate(); err != nil {
						t.Fatal(err)
					}
					res, err := be.Run(rc)
					if err != nil {
						t.Fatal(err)
					}
					if res.Outcome != ending {
						t.Fatalf("job %d ended %q, want %q", i, res.Outcome, ending)
					}
					settleGoroutines(t, baseline, fmt.Sprintf("after job %d", i+1))
				}
			})
		}
	}
}

// TestRigidAndElasticDieRank pins the one meaning of elastic: it is the
// recovery budget and nothing else. The same die_rank spec through either
// backend fails with the typed *mpi.PeerError on the first rank loss when
// rigid — no silent recovery, no hang — and ends recovered on the surviving
// ranks once flipped to elastic.
func TestRigidAndElasticDieRank(t *testing.T) {
	die := 2
	for _, be := range liveBackends {
		t.Run(be.Name(), func(t *testing.T) {
			spec := Spec{
				Name: "crash", PPN: 4, Steps: 8, CkptDir: t.TempDir(), CkptEvery: 2,
				RecvTimeout: Duration(300 * time.Millisecond), DieRank: &die, DieStep: 3,
			}
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
			baseline := runtime.NumGoroutine()
			res, err := be.Run(&RunContext{Spec: spec})
			if _, typed := mpi.AsPeerError(err); !typed {
				t.Fatalf("rigid job: err = %v (result %+v), want a typed *mpi.PeerError", err, res)
			}
			settleGoroutines(t, baseline, "after the failed rigid job")

			spec.Elastic, spec.CkptDir = true, t.TempDir()
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
			res, err = be.Run(&RunContext{Spec: spec})
			if err != nil {
				t.Fatalf("elastic job: %v", err)
			}
			if res.Outcome != "recovered" || res.FinalStep != 8 || res.WorldSize != 3 {
				t.Fatalf("elastic job: %+v, want recovered at step 8 in a world of 3", res)
			}
		})
	}
}
