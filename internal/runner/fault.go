package runner

import (
	"sync"
	"time"

	"dnnperf/internal/job"
	"dnnperf/internal/mpi"
)

// The fault-tolerance experiment runs the functional comm layer (not the
// analytical simulator) under injected faults: the TCO-survey point that a
// characterization stack needs failure models, not just happy paths. Each
// scenario is a fresh 4-rank in-process job with a Recv deadline; faults
// are seeded, so the drop/delay/duplicate sequences are reproducible.

func init() {
	register(Experiment{
		ID:       "faulttol",
		Title:    "Transport fault injection: allreduce outcomes under faults",
		PaperRef: "extension (Sec. V reliability)",
		Run:      runFaultTol,
	})
}

func runFaultTol() (*Table, error) {
	const (
		ranks       = 4
		vec         = 256
		recvTimeout = 250 * time.Millisecond
	)
	type scenario struct {
		name      string
		seed      int64
		faults    *job.Faults
		partition bool // sever rank 0 -> rank 1
		rounds    int
	}
	// Duplication runs a single collective: ring tags are reused across
	// collectives, so cross-collective duplicates model real corruption
	// rather than a survivable fault (see mpi.FaultConfig).
	scenarios := []scenario{
		{name: "clean", rounds: 5},
		{name: "delay 50% x1ms", seed: 1, faults: &job.Faults{DelayProb: 0.5, Delay: job.Duration(time.Millisecond)}, rounds: 5},
		{name: "duplicate 100%", seed: 2, faults: &job.Faults{DupProb: 1}, rounds: 1},
		{name: "partition 0->1", partition: true, rounds: 1},
	}

	t := &Table{
		ID:       "faulttol",
		Title:    "Ring allreduce on the functional TCP-style transport under injected faults (4 ranks, 256 floats, 250ms deadline)",
		PaperRef: "extension (arXiv:2506.09275 failure-model requirement)",
		XLabel:   "scenario",
		Unit:     "counts; last column wall ms",
		Columns:  []string{"attempted", "completed", "typed errors", "ms"},
	}

	for _, sc := range scenarios {
		spec := &job.Spec{PPN: ranks, Seed: sc.seed, Faults: sc.faults, RecvTimeout: job.Duration(recvTimeout)}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		fleet, err := job.NewFleet(spec, "inproc")
		if err != nil {
			return nil, err
		}
		if sc.partition {
			fleet.Fault(0).Partition(1)
		}

		completed, typed := 0, 0
		start := time.Now()
		for round := 0; round < sc.rounds; round++ {
			errs := make([]error, ranks)
			bufs := make([][]float32, ranks)
			var wg sync.WaitGroup
			for r := 0; r < ranks; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					buf := make([]float32, vec)
					for i := range buf {
						buf[i] = float32(r)
					}
					bufs[r] = buf
					errs[r] = fleet.Comm(r).AllreduceRing(buf, mpi.OpSum)
				}(r)
			}
			wg.Wait()
			ok := true
			for r := 0; r < ranks; r++ {
				if errs[r] != nil {
					ok = false
					if _, isTyped := mpi.AsPeerError(errs[r]); isTyped {
						typed++
					}
				} else if bufs[r][0] != float32(ranks*(ranks-1)/2) {
					ok = false
				}
			}
			if !ok {
				break // a failed collective poisons the job; stop the scenario
			}
			completed++
		}
		t.Rows = append(t.Rows, Row{Name: sc.name, Values: []float64{
			float64(sc.rounds), float64(completed), float64(typed),
			float64(time.Since(start).Milliseconds()),
		}})
	}

	clean, _ := t.Cell("clean", 1)
	part, _ := t.Cell("partition 0->1", 2)
	t.AddNote("clean/delay/duplicate scenarios complete %v/%v allreduces; a partition resolves to %v typed PeerErrors within the 250ms deadline instead of a hang", clean, 5, part)
	return t, nil
}
