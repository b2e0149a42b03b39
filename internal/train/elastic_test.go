package train

import (
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"dnnperf/internal/data"
	"dnnperf/internal/horovod"
	"dnnperf/internal/models"
	"dnnperf/internal/mpi"
)

// elasticFixtures returns the deterministic factories a supervised elastic
// run needs: same-seed models, per-size momentum optimizers, and per-rank
// generators repositioned to a resume step by burning batches.
func elasticFixtures(batch int) (func() *models.Model, func(int) Optimizer, func(rank, size int, startStep int64) (func() data.Batch, error)) {
	newModel := func() *models.Model { return tinyModel(13, batch) }
	newOpt := func(worldSize int) Optimizer { return &Momentum{LR: 0.05, Mu: 0.9} }
	newGen := func(rank, size int, startStep int64) (func() data.Batch, error) {
		gen, err := data.NewLearnable(batch, 3, 16, 4, data.Shard(97, rank))
		if err != nil {
			return nil, err
		}
		for i := int64(0); i < startStep; i++ {
			gen.Next()
		}
		return gen.Next, nil
	}
	return newModel, newOpt, newGen
}

func elasticConfig(comm *mpi.Comm, steps int, ckptDir string) SupervisorConfig {
	newModel, newOpt, newGen := elasticFixtures(4)
	return SupervisorConfig{
		Comm:         comm,
		Engine:       horovod.Config{CycleTime: 300 * time.Microsecond, Average: true},
		NewModel:     newModel,
		NewOptimizer: newOpt,
		NewGen:       newGen,
		Steps:        steps,
		CkptDir:      ckptDir,
		CkptEvery:    2,
		KeepCkpts:    -1, // these tests inspect the full checkpoint history
		// Elastic, spelled out: the supervisor's zero value is a rigid run.
		MaxRecoveries: 2,
	}
}

// runDoomedRank is the rank a crash test kills: a supervised member of the
// job like any other (same checkpoint directory, so it takes part in the
// bootstrap restore), whose config carries its death step — it completes
// dieSteps steps, then aborts its transport without a goodbye, the crash
// the survivors must absorb.
func runDoomedRank(t *testing.T, comm *mpi.Comm, ckptDir string, dieSteps int) error {
	t.Helper()
	cfg := elasticConfig(comm, dieSteps+1, ckptDir)
	cfg.DieAt = int64(dieSteps)
	res, err := Supervise(cfg)
	if err == nil && (res.Outcome != OutcomeKilled || res.FinalStep != int64(dieSteps)) {
		t.Errorf("doomed rank %d: outcome %v at step %d, want killed at %d",
			comm.Rank(), res.Outcome, res.FinalStep, dieSteps)
	}
	return err
}

// TestSuperviseCleanRun: no failures — the supervised loop is just a
// training loop with periodic checkpoints, ending OutcomeClean.
func TestSuperviseCleanRun(t *testing.T) {
	w, err := mpi.NewWorldOpts(2, mpi.WorldOptions{RecvTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const steps = 6

	baseline := runtime.NumGoroutine()
	var wg sync.WaitGroup
	results := make([]*SupervisorResult, 2)
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = Supervise(elasticConfig(w.Comm(r), steps, dir))
		}(r)
	}
	wg.Wait()
	// The supervisor owns its engine: once Supervise has returned, the
	// engine loops and executor pools it started are gone.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before it — Supervise leaked", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for r := 0; r < 2; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		res := results[r]
		if res.Outcome != OutcomeClean {
			t.Fatalf("rank %d: outcome %v, want clean", r, res.Outcome)
		}
		if res.FinalStep != steps || len(res.Steps) != steps {
			t.Fatalf("rank %d: final step %d (%d stats), want %d", r, res.FinalStep, len(res.Steps), steps)
		}
		if len(res.Recoveries) != 0 {
			t.Fatalf("rank %d: unexpected recoveries %v", r, res.Recoveries)
		}
	}
	// The leader checkpointed at steps 2, 4, 6.
	for _, step := range []int64{2, 4, 6} {
		p := filepath.Join(dir, ckptFileName(step))
		m := tinyModel(13, 4)
		st, err := LoadTrainingCheckpointFile(p, m)
		if err != nil {
			t.Fatalf("checkpoint %s: %v", p, err)
		}
		if st.Step != step {
			t.Fatalf("checkpoint %s records step %d", p, st.Step)
		}
	}
	// Loss fell over the run.
	ls := results[0].Steps
	if ls[len(ls)-1].Loss >= ls[0].Loss {
		t.Fatalf("loss did not fall: %.3f -> %.3f", ls[0].Loss, ls[len(ls)-1].Loss)
	}
}

// TestSuperviseRecoversFromRankDeath: a 3-rank job loses rank 2 mid-run;
// the survivors shrink to 2 ranks, roll back to the last checkpoint, and
// complete the full step budget.
func TestSuperviseRecoversFromRankDeath(t *testing.T) {
	w, err := mpi.NewWorldOpts(3, mpi.WorldOptions{RecvTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const steps, dieAfter = 8, 3

	var wg sync.WaitGroup
	results := make([]*SupervisorResult, 2)
	errs := make([]error, 3)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = Supervise(elasticConfig(w.Comm(r), steps, dir))
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[2] = runDoomedRank(t, w.Comm(2), dir, dieAfter)
	}()
	wg.Wait()

	if errs[2] != nil {
		t.Fatalf("doomed rank failed before its death: %v", errs[2])
	}
	for r := 0; r < 2; r++ {
		if errs[r] != nil {
			t.Fatalf("survivor %d: %v", r, errs[r])
		}
		res := results[r]
		if res.Outcome != OutcomeRecovered {
			t.Fatalf("survivor %d: outcome %v, want recovered", r, res.Outcome)
		}
		if res.FinalStep != steps || len(res.Steps) != steps {
			t.Fatalf("survivor %d: final step %d (%d stats), want %d",
				r, res.FinalStep, len(res.Steps), steps)
		}
		if len(res.Recoveries) != 1 {
			t.Fatalf("survivor %d: %d recoveries, want 1", r, len(res.Recoveries))
		}
		ev := res.Recoveries[0]
		if ev.OldSize != 3 || ev.NewSize != 2 {
			t.Fatalf("survivor %d: shrink %d -> %d, want 3 -> 2", r, ev.OldSize, ev.NewSize)
		}
		if len(ev.FailedRanks) != 1 || ev.FailedRanks[0] != 2 {
			t.Fatalf("survivor %d: failed ranks %v, want [2]", r, ev.FailedRanks)
		}
		if ev.ResumeStep%2 != 0 {
			t.Fatalf("survivor %d: resume step %d is not a checkpoint step", r, ev.ResumeStep)
		}
		if ev.Latency <= 0 {
			t.Fatalf("survivor %d: zero recovery latency", r)
		}
		if res.WorldSize != 2 {
			t.Fatalf("survivor %d: final world size %d, want 2", r, res.WorldSize)
		}
		if res.EngineStats.Restarts != 1 {
			t.Fatalf("survivor %d: engine restarts %d, want 1", r, res.EngineStats.Restarts)
		}
	}
}

// TestRecoveredTrajectoryMatchesCheckpointRun is the recovery-correctness
// guarantee: the steps a survivor executes after recovery are bit-identical
// to an uninterrupted single-process run restored from the same checkpoint
// file. A 2-rank job loses rank 1; the survivor finishes alone (size 1), so
// the reference run is an engineless trainer restored from the resume
// checkpoint with the survivor's shard.
func TestRecoveredTrajectoryMatchesCheckpointRun(t *testing.T) {
	w, err := mpi.NewWorldOpts(2, mpi.WorldOptions{RecvTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const steps, dieAfter = 8, 3

	var wg sync.WaitGroup
	var res *SupervisorResult
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		// A 2->1 shrink leaves exactly half the world: the quorum rule would
		// park the survivor, but this test is about trajectory correctness.
		cfg := elasticConfig(w.Comm(0), steps, dir)
		cfg.AllowMinority = true
		res, errs[0] = Supervise(cfg)
	}()
	go func() {
		defer wg.Done()
		errs[1] = runDoomedRank(t, w.Comm(1), dir, dieAfter)
	}()
	wg.Wait()
	if errs[1] != nil {
		t.Fatalf("doomed rank: %v", errs[1])
	}
	if errs[0] != nil {
		t.Fatalf("survivor: %v", errs[0])
	}
	if res.Outcome != OutcomeRecovered || len(res.Recoveries) != 1 {
		t.Fatalf("survivor outcome %v with %d recoveries", res.Outcome, len(res.Recoveries))
	}
	resume := res.Recoveries[0].ResumeStep

	// Reference: restore the same checkpoint file into fresh objects and run
	// the remaining steps without any engine. With Average and world size 1
	// the supervised survivor's gradients are untouched by the reduction, so
	// the two trajectories must match float-for-float.
	newModel, newOpt, newGen := elasticFixtures(4)
	m := newModel()
	opt := newOpt(1)
	st, err := LoadTrainingCheckpointFile(filepath.Join(dir, ckptFileName(resume)), m)
	if err != nil {
		t.Fatalf("loading resume checkpoint: %v", err)
	}
	if st.Step != resume {
		t.Fatalf("resume checkpoint records step %d, want %d", st.Step, resume)
	}
	if err := RestoreTrainState(m, opt, st); err != nil {
		t.Fatal(err)
	}
	gen, err := newGen(0, 1, resume)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Config{Model: m, Optimizer: opt})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ref, err := tr.Run(gen, steps-int(resume))
	if err != nil {
		t.Fatal(err)
	}

	for i, r := range ref {
		got := res.Steps[int(resume)+i]
		if got.Loss != r.Loss {
			t.Fatalf("step %d: recovered loss %v != reference %v", int(resume)+i, got.Loss, r.Loss)
		}
	}
}

// TestElasticEndToEndTCP is the acceptance scenario over real sockets: a
// 3-rank TCP job loses rank 2 to an abrupt abort; the survivors recover and
// complete the full budget on the shrunk job.
func TestElasticEndToEndTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP elastic integration in -short mode")
	}
	// Generous deadlines: under -race every step and negotiation runs many
	// times slower, and a too-tight RecvTimeout declares healthy peers dead.
	comms, err := mpi.StartLocalTCPJobOpts(3, mpi.TCPOptions{
		RecvTimeout:  time.Second,
		DrainTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	dir := t.TempDir()
	const steps, dieAfter = 8, 3

	var wg sync.WaitGroup
	results := make([]*SupervisorResult, 2)
	errs := make([]error, 3)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = Supervise(elasticConfig(comms[r], steps, dir))
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[2] = runDoomedRank(t, comms[2], dir, dieAfter)
	}()
	wg.Wait()

	if errs[2] != nil {
		t.Fatalf("doomed rank: %v", errs[2])
	}
	for r := 0; r < 2; r++ {
		if errs[r] != nil {
			t.Fatalf("survivor %d: %v", r, errs[r])
		}
		res := results[r]
		if res.Outcome != OutcomeRecovered {
			t.Fatalf("survivor %d: outcome %v, want recovered", r, res.Outcome)
		}
		if res.FinalStep != steps || len(res.Steps) != steps {
			t.Fatalf("survivor %d: final step %d (%d stats), want %d",
				r, res.FinalStep, len(res.Steps), steps)
		}
		ev := res.Recoveries[0]
		if ev.OldSize != 3 || ev.NewSize != 2 {
			t.Fatalf("survivor %d: shrink %d -> %d, want 3 -> 2", r, ev.OldSize, ev.NewSize)
		}
	}
}

// TestSuperviseDieAtLeader: the injected death is a step of the ordinary
// loop, not a separate one — a doomed leader completes its DieAt step like a
// real process would have, checkpoint and OnStep included, and only then
// aborts. The rigid survivor fails typed, and its successor would find the
// step-2 file the dead leader wrote.
func TestSuperviseDieAtLeader(t *testing.T) {
	w, err := mpi.NewWorldOpts(2, mpi.WorldOptions{RecvTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const steps, dieAt = 6, 2

	var wg sync.WaitGroup
	results := make([]*SupervisorResult, 2)
	errs := make([]error, 2)
	var hooked []int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := elasticConfig(w.Comm(r), steps, dir)
			cfg.MaxRecoveries = 0
			if r == 0 {
				cfg.DieAt = dieAt
				cfg.OnStep = func(step int64, _ StepStats) { hooked = append(hooked, step) }
			}
			results[r], errs[r] = Supervise(cfg)
		}(r)
	}
	wg.Wait()

	if errs[0] != nil || results[0].Outcome != OutcomeKilled || results[0].FinalStep != dieAt {
		t.Fatalf("victim: outcome %v at step %d, err %v; want killed at %d",
			results[0].Outcome, results[0].FinalStep, errs[0], dieAt)
	}
	if len(hooked) != dieAt || hooked[dieAt-1] != dieAt {
		t.Fatalf("victim's OnStep saw %v, want every step through %d", hooked, dieAt)
	}
	if st, err := LoadTrainingCheckpointFile(filepath.Join(dir, ckptFileName(dieAt)), tinyModel(13, 4)); err != nil || st.Step != dieAt {
		t.Fatalf("the doomed leader's step-%d checkpoint: %+v, %v", dieAt, st, err)
	}
	if pe, ok := mpi.AsPeerError(errs[1]); !ok || pe.Rank != 0 || results[1].Outcome != OutcomeFailed {
		t.Fatalf("rigid survivor: outcome %v, err %v; want failed with a PeerError naming rank 0", results[1].Outcome, errs[1])
	}
}

// TestWeightsCRCDistinguishesStates: the split-brain fingerprint must move
// when the state does. (It used to checksum payload plus trailer, which is
// the CRC-32 residue 0x2144df1c for every state.)
func TestWeightsCRCDistinguishesStates(t *testing.T) {
	base := weightsCRC(tinyModel(13, 4), &Momentum{LR: 0.05, Mu: 0.9}, 4)
	if again := weightsCRC(tinyModel(13, 4), &Momentum{LR: 0.05, Mu: 0.9}, 4); again != base {
		t.Fatalf("equal states fingerprint differently: %08x vs %08x", base, again)
	}
	for name, crc := range map[string]uint32{
		"other weights":   weightsCRC(tinyModel(14, 4), &Momentum{LR: 0.05, Mu: 0.9}, 4),
		"other step":      weightsCRC(tinyModel(13, 4), &Momentum{LR: 0.05, Mu: 0.9}, 5),
		"other optimizer": weightsCRC(tinyModel(13, 4), &SGD{LR: 0.05}, 4),
	} {
		if crc == base {
			t.Errorf("%s: fingerprint %08x equals the base state's", name, crc)
		}
	}
}
