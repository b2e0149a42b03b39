package runner

import (
	"fmt"
	"os"
	"time"

	"dnnperf/internal/job"
	"dnnperf/internal/train"
)

// The elastic experiment measures what rank failure costs a supervised
// training job: recovery latency (failure detection -> survivor agreement ->
// engine restart -> checkpoint rollback -> training resumed) and the
// post-shrink throughput on the survivors. Three scenarios on a 4-rank
// in-process job: no failure, a worker dying mid-run (rollback to the last
// checkpoint), and the leader — the only checkpoint writer — dying before
// its first save (rollback to step 0, the worst case).

func init() {
	register(Experiment{
		ID:       "elastic",
		Title:    "Elastic checkpoint-restart: recovery cost after rank failure",
		PaperRef: "extension (Sec. V reliability)",
		Run:      runElastic,
	})
}

func runElastic() (*Table, error) {
	const (
		ranks       = 4
		recvTimeout = 250 * time.Millisecond
	)

	type scenario struct {
		name    string
		dieRank int // -1: nobody dies
		dieStep int
	}
	scenarios := []scenario{
		{name: "clean", dieRank: -1},
		{name: "worker dies @5", dieRank: 3, dieStep: 5},
		{name: "leader dies @1", dieRank: 0, dieStep: 1},
	}

	t := &Table{
		ID:       "elastic",
		Title:    "Supervised elastic training under rank failure (4 ranks, checkpoint every 2 steps, 250ms deadline)",
		PaperRef: "extension (arXiv:2506.09275 failure-model requirement)",
		XLabel:   "scenario",
		Unit:     "counts; latency ms; throughput img/s",
		Columns:  []string{"survivors", "recoveries", "resume step", "recovery ms", "final step", "img/s after"},
	}

	for _, sc := range scenarios {
		dir, err := os.MkdirTemp("", "dnnperf-elastic-*")
		if err != nil {
			return nil, err
		}
		// One job.Spec is the whole scenario, crash included — the same
		// schema mpirun and dnnsched run, through the same backend.
		spec := job.Spec{
			Name: "elastic-" + sc.name, PPN: ranks, RecvTimeout: job.Duration(recvTimeout),
			Steps: 10, Elastic: true, CkptDir: dir, CkptEvery: 2,
		}
		if sc.dieRank >= 0 {
			spec.DieRank, spec.DieStep = &sc.dieRank, int64(sc.dieStep)
		}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		out, err := job.InprocBackend{}.Run(&job.RunContext{Spec: spec})
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("elastic %q: %w", sc.name, err)
		}

		// Report the final leader's view (any survivor works: they agree).
		var res *train.SupervisorResult
		for _, rr := range out.PerRank {
			if rr != nil && rr.Rank == 0 {
				res = rr
			}
		}
		if res == nil {
			return nil, fmt.Errorf("elastic %q: no surviving leader", sc.name)
		}
		resume, latency := 0.0, 0.0
		after := res.Steps // post-recovery steps (all of them for a clean run)
		if len(res.Recoveries) > 0 {
			ev := res.Recoveries[len(res.Recoveries)-1]
			resume = float64(ev.ResumeStep)
			latency = float64(ev.Latency) / float64(time.Millisecond)
			after = res.Steps[ev.ResumeStep:]
		}
		t.Rows = append(t.Rows, Row{Name: sc.name, Values: []float64{
			float64(res.WorldSize), float64(len(res.Recoveries)), resume, latency,
			float64(res.FinalStep), train.Throughput(after),
		}})
	}

	workerMS, _ := t.Cell("worker dies @5", 3)
	leaderResume, _ := t.Cell("leader dies @1", 2)
	t.AddNote("a worker death costs ~%.0fms of recovery latency and a rollback to the last checkpoint; "+
		"losing the leader before its first save forces a restart from step %.0f — the worst case the "+
		"checkpoint period bounds", workerMS, leaderResume)
	return t, nil
}
