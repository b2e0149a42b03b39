package job

import (
	"sync"
	"testing"
	"time"

	"dnnperf/internal/mpi"
	"dnnperf/internal/train"
)

var fleetTransports = []string{"inproc", "tcp"}

// stage validates spec and stages it over transport.
func stage(t *testing.T, spec *Spec, transport string) *Fleet {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	fleet, err := NewFleet(spec, transport)
	if err != nil {
		t.Fatal(err)
	}
	return fleet
}

// TestFleetStaging: the staged communicators form one working world, and
// each slot's fault transport is the one its communicator sends through.
func TestFleetStaging(t *testing.T) {
	for _, transport := range fleetTransports {
		t.Run(transport, func(t *testing.T) {
			const n = 3
			fleet := stage(t, &Spec{PPN: n, RecvTimeout: Duration(200 * time.Millisecond)}, transport)
			var wg sync.WaitGroup
			sums, errs := make([]float32, n), make([]error, n)
			for r := 0; r < n; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					buf := []float32{float32(r + 1)}
					errs[r] = fleet.Comm(r).Allreduce(buf, mpi.OpSum)
					sums[r] = buf[0]
				}(r)
			}
			wg.Wait()
			for r := 0; r < n; r++ {
				if errs[r] != nil || sums[r] != 6 {
					t.Fatalf("rank %d: allreduce = %v, %v; want 6", r, sums[r], errs[r])
				}
			}

			// Rank 0 isolated: its send is swallowed by its own slot's
			// transport, so rank 1 sees a typed deadline expiry.
			fleet.Fault(0).PartitionAll()
			if err := fleet.Comm(0).Send(1, 7, []byte("lost")); err != nil {
				t.Fatal(err)
			}
			if _, err := fleet.Comm(1).Recv(0, 7); err == nil {
				t.Fatal("a partitioned rank's send was delivered")
			} else if _, typed := mpi.AsPeerError(err); !typed {
				t.Fatalf("want a typed peer error, got %v", err)
			}
			if st := fleet.Fault(0).Stats(); st.Blocked != 1 {
				t.Fatalf("slot 0 transport blocked %d sends, want 1", st.Blocked)
			}
		})
	}
}

// TestFleetRejoinInstallsCurrentTransport: a restarted rank's transport
// lands in its slot — so later partitions and rate swaps reach the live
// incarnation — and starts from the slot's current fault rates, not the
// spec's original template.
func TestFleetRejoinInstallsCurrentTransport(t *testing.T) {
	for _, transport := range fleetTransports {
		t.Run(transport, func(t *testing.T) {
			fleet := stage(t, &Spec{PPN: 3, RecvTimeout: Duration(200 * time.Millisecond)}, transport)
			dead := fleet.Fault(2)
			swapped := dead.Config()
			swapped.DelayProb, swapped.Delay = 0.25, time.Millisecond
			dead.SetConfig(swapped)
			fleet.Comm(2).Abort()

			// The leader's supervisor arms the rejoin acceptor in a real run.
			mpi.EnableRejoin(fleet.Comm(0))
			comm, err := fleet.Rejoin(2)
			if err != nil {
				t.Fatal(err)
			}
			if fleet.Comm(2) != comm {
				t.Fatal("slot 2 still holds the dead incarnation's communicator")
			}
			live := fleet.Fault(2)
			if live == dead {
				t.Fatal("slot 2 still holds the dead incarnation's fault transport")
			}
			if live.Config() != swapped {
				t.Fatalf("joiner starts from %+v, want the slot's current %+v", live.Config(), swapped)
			}
			live.PartitionAll()
			if err := comm.Send(0, 7, []byte("lost")); err != nil {
				t.Fatal(err)
			}
			if st := live.Stats(); st.Blocked != 1 {
				t.Fatalf("the joiner's sends bypass its slot's transport (blocked=%d)", st.Blocked)
			}
		})
	}
}

// TestFleetRunTwoVictims: a kill set with two ranks goes through the one
// fan-out; the surviving majority absorbs both, ends in a world of n-2 and
// agrees on the weights, and the lowest survivor speaks for the job.
func TestFleetRunTwoVictims(t *testing.T) {
	for _, transport := range fleetTransports {
		t.Run(transport, func(t *testing.T) {
			const n = 5
			fleet := stage(t, &Spec{
				Name: "storm", PPN: n, Steps: 6, Elastic: true, CkptDir: t.TempDir(),
				RecvTimeout: Duration(300 * time.Millisecond),
			}, transport)
			decorated := make([]bool, n)
			res, errs := fleet.Run(map[int]int64{0: 2, 4: 2}, func(r int, cfg *train.SupervisorConfig) {
				decorated[r] = true
			})
			for r := 0; r < n; r++ {
				if !decorated[r] {
					t.Errorf("rank %d never passed through the decorator", r)
				}
				killed := r == 0 || r == 4
				if errs[r] != nil {
					t.Errorf("rank %d: %v", r, errs[r])
				}
				if pr := res.PerRank[r]; killed != (pr == nil) {
					t.Errorf("rank %d: killed=%t but result=%v", r, killed, pr)
				} else if pr != nil && (pr.WorldSize != n-2 || pr.FinalStep != 6 || pr.WeightsCRC != res.WeightsCRC) {
					t.Errorf("rank %d: world=%d step=%d crc=%08x, want world %d step 6 crc %08x",
						r, pr.WorldSize, pr.FinalStep, pr.WeightsCRC, n-2, res.WeightsCRC)
				}
			}
			if low := res.PerRank[1]; low == nil || res.Outcome != "recovered" || res.WorldSize != n-2 ||
				res.FinalStep != 6 || res.Recoveries != len(low.Recoveries) {
				t.Fatalf("summary %+v is not rank 1's view", res)
			}
		})
	}
}

// TestDieRankThroughBackend: the spec-level crash demo is the same kill set
// through the same runner — one death, recovered, full budget on n-1 ranks.
func TestDieRankThroughBackend(t *testing.T) {
	die := 2
	spec := Spec{
		Name: "crash", PPN: 4, Steps: 8, Elastic: true, CkptDir: t.TempDir(),
		RecvTimeout: Duration(300 * time.Millisecond), DieRank: &die, DieStep: 3,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := InprocBackend{}.Run(&RunContext{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != "recovered" || res.FinalStep != 8 || res.WorldSize != 3 || res.Recoveries != 1 {
		t.Fatalf("result %+v, want recovered at step 8 in a world of 3 after 1 recovery", res)
	}
	if res.PerRank[die] != nil {
		t.Fatal("the dead rank reports a supervised result")
	}
}
