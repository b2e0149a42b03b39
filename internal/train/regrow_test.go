package train

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dnnperf/internal/models"
	"dnnperf/internal/mpi"
	"dnnperf/internal/telemetry"
)

// checkCRCsAgree is the split-brain probe: every rank that finished the run
// must fingerprint the identical serialized model + training state.
func checkCRCsAgree(t *testing.T, results []*SupervisorResult) {
	t.Helper()
	var want uint32
	for r, res := range results {
		if res == nil {
			continue
		}
		if res.WeightsCRC == 0 {
			t.Fatalf("rank %d: zero weights CRC", r)
		}
		if want == 0 {
			want = res.WeightsCRC
		} else if res.WeightsCRC != want {
			t.Fatalf("rank %d: weights CRC %08x != %08x — split brain", r, res.WeightsCRC, want)
		}
	}
}

// TestSuperviseRegrowAfterRestart: a 3-rank job loses rank 2, shrinks to 2,
// then the dead rank's process restarts as a Joiner and the world grows back
// to 3 — the full kill -> shrink -> rejoin -> regrow round trip in-process.
func TestSuperviseRegrowAfterRestart(t *testing.T) {
	w, err := mpi.NewWorldOpts(3, mpi.WorldOptions{RecvTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const steps, dieAfter = 8, 3
	health := telemetry.NewHealth()

	var wg sync.WaitGroup
	results := make([]*SupervisorResult, 3)
	errs := make([]error, 3)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := elasticConfig(w.Comm(r), steps, dir)
			cfg.RegrowWait = 20 * time.Second
			if r == 0 {
				cfg.Health = health
			}
			results[r], errs[r] = Supervise(cfg)
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if derr := runDoomedRank(t, w.Comm(2), dir, dieAfter); derr != nil {
			errs[2] = derr
			return
		}
		// The process restarts: a fresh endpoint for the same root rank,
		// supervised as a Joiner. The admission may race the survivors'
		// failure detection; RetryRejected inside the supervisor absorbs it.
		cfg := elasticConfig(w.Rejoin(2), steps, dir)
		cfg.Joiner = true
		cfg.RejoinTimeout = 20 * time.Second
		results[2], errs[2] = Supervise(cfg)
	}()
	wg.Wait()

	for r := 0; r < 3; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		res := results[r]
		if res.Outcome != OutcomeRecovered {
			t.Fatalf("rank %d: outcome %v, want recovered", r, res.Outcome)
		}
		if res.WorldSize != 3 {
			t.Fatalf("rank %d: final world size %d, want 3 (regrown)", r, res.WorldSize)
		}
		if res.FinalStep != steps {
			t.Fatalf("rank %d: final step %d, want %d", r, res.FinalStep, steps)
		}
	}
	for r := 0; r < 2; r++ {
		res := results[r]
		if len(res.Recoveries) != 1 || res.Recoveries[0].OldSize != 3 || res.Recoveries[0].NewSize != 2 {
			t.Fatalf("survivor %d: recoveries %+v, want one 3 -> 2 shrink", r, res.Recoveries)
		}
		if len(res.Regrows) == 0 {
			t.Fatalf("survivor %d: no regrow recorded", r)
		}
		last := res.Regrows[len(res.Regrows)-1]
		if last.NewSize != 3 || len(last.Joined) != 1 || last.Joined[0] != 2 {
			t.Fatalf("survivor %d: last regrow %+v, want -> 3 with joined [2]", r, last)
		}
	}
	joiner := results[2]
	if len(joiner.Recoveries) != 0 {
		t.Fatalf("joiner recorded recoveries %+v; a joiner only regrows", joiner.Recoveries)
	}
	if len(joiner.Regrows) != 1 || joiner.Regrows[0].Joined[0] != 2 {
		t.Fatalf("joiner regrows %+v, want exactly its own admission", joiner.Regrows)
	}
	checkCRCsAgree(t, results)
	// Rank 0's /healthz world trajectory: full, shrunk, regrown.
	if hist := health.WorldHistory(); len(hist) != 3 || hist[0] != 3 || hist[1] != 2 || hist[2] != 3 {
		t.Fatalf("world history %v, want [3 2 3]", hist)
	}
}

// TestSuperviseQuorumParksMinority: a 3-rank job partitions 2|1. The majority
// pair shrinks and keeps training; the isolated rank must NOT — it lacks
// quorum, parks without a single optimizer update, and is readmitted after
// the partition heals. This is the split-brain elimination guarantee.
func TestSuperviseQuorumParksMinority(t *testing.T) {
	w, err := mpi.NewWorldOpts(3, mpi.WorldOptions{RecvTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const steps = 8

	fts := make([]*mpi.FaultTransport, 3)
	comms := make([]*mpi.Comm, 3)
	for r := 0; r < 3; r++ {
		fts[r] = mpi.NewFaultTransport(w.Comm(r).Endpoint(), mpi.FaultConfig{})
		comms[r] = mpi.NewComm(fts[r])
	}
	var isolate, heal sync.Once
	hook := func(rank int) func(int64, StepStats) {
		return func(step int64, _ StepStats) {
			if rank == 2 && step == 3 {
				isolate.Do(func() {
					fts[0].Partition(2)
					fts[1].Partition(2)
					fts[2].PartitionAll()
				})
			}
			// Rank 0 first reaches step 5 after the majority's recovery
			// (the failure lands at step 4), so the heal is post-shrink.
			if rank == 0 && step == 5 {
				heal.Do(func() {
					for _, ft := range fts {
						ft.HealAll()
					}
				})
			}
		}
	}

	var wg sync.WaitGroup
	results := make([]*SupervisorResult, 3)
	errs := make([]error, 3)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := elasticConfig(comms[r], steps, dir)
			cfg.RegrowWait = 20 * time.Second
			cfg.RejoinTimeout = 25 * time.Second
			cfg.OnStep = hook(r)
			results[r], errs[r] = Supervise(cfg)
		}(r)
	}
	wg.Wait()

	for r := 0; r < 3; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if results[r].WorldSize != 3 || results[r].FinalStep != steps {
			t.Fatalf("rank %d: world %d step %d, want 3/%d",
				r, results[r].WorldSize, results[r].FinalStep, steps)
		}
	}
	minority := results[2]
	if !minority.Parked {
		t.Fatal("isolated rank did not park")
	}
	if len(minority.Recoveries) != 0 {
		t.Fatalf("isolated rank recorded recoveries %+v — it trained without quorum", minority.Recoveries)
	}
	if len(minority.Regrows) != 1 {
		t.Fatalf("isolated rank regrows %+v, want exactly its readmission", minority.Regrows)
	}
	for r := 0; r < 2; r++ {
		res := results[r]
		if len(res.Recoveries) != 1 || res.Recoveries[0].NewSize != 2 {
			t.Fatalf("majority rank %d: recoveries %+v, want one shrink to 2", r, res.Recoveries)
		}
		last := res.Regrows[len(res.Regrows)-1]
		if last.NewSize != 3 || len(last.Joined) != 1 || last.Joined[0] != 2 {
			t.Fatalf("majority rank %d: last regrow %+v, want readmission of 2", r, last)
		}
	}
	checkCRCsAgree(t, results)
}

// TestRegrowEndToEndTCP is the acceptance scenario over real sockets: a
// 4-rank TCP job loses rank 2 to an abrupt abort, shrinks to 3 under quorum,
// the killed process restarts and rejoins through the TCP rendezvous, and
// the world returns to 4 with every rank resuming bit-exactly (equal CRCs).
func TestRegrowEndToEndTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP regrow integration in -short mode")
	}
	topts := mpi.TCPOptions{
		RecvTimeout:  time.Second,
		DrainTimeout: 200 * time.Millisecond,
	}
	comms, err := mpi.StartLocalTCPJobOpts(4, topts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	// Rank 0's listen address doubles as the rejoin rendezvous.
	rootAddr := comms[0].PeerAddrs()[0]
	dir := t.TempDir()
	const steps, dieAfter = 10, 3

	var wg sync.WaitGroup
	results := make([]*SupervisorResult, 4)
	errs := make([]error, 4)
	for _, r := range []int{0, 1, 3} {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := elasticConfig(comms[r], steps, dir)
			cfg.RegrowWait = 20 * time.Second
			results[r], errs[r] = Supervise(cfg)
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if derr := runDoomedRank(t, comms[2], dir, dieAfter); derr != nil {
			errs[2] = derr
			return
		}
		jc, jerr := mpi.RejoinTCP(2, 4, rootAddr, "127.0.0.1:0", topts)
		if jerr != nil {
			errs[2] = jerr
			return
		}
		defer jc.Close()
		cfg := elasticConfig(jc, steps, dir)
		cfg.Joiner = true
		cfg.RejoinTimeout = 20 * time.Second
		results[2], errs[2] = Supervise(cfg)
	}()
	wg.Wait()

	for r := 0; r < 4; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		res := results[r]
		if res.Outcome != OutcomeRecovered {
			t.Fatalf("rank %d: outcome %v, want recovered", r, res.Outcome)
		}
		if res.WorldSize != 4 {
			t.Fatalf("rank %d: final world size %d, want 4", r, res.WorldSize)
		}
		if res.FinalStep != steps {
			t.Fatalf("rank %d: final step %d, want %d", r, res.FinalStep, steps)
		}
	}
	for _, r := range []int{0, 1, 3} {
		res := results[r]
		if len(res.Recoveries) != 1 || res.Recoveries[0].OldSize != 4 || res.Recoveries[0].NewSize != 3 {
			t.Fatalf("survivor %d: recoveries %+v, want one 4 -> 3 shrink", r, res.Recoveries)
		}
		last := res.Regrows[len(res.Regrows)-1]
		if last.NewSize != 4 || len(last.Joined) != 1 || last.Joined[0] != 2 {
			t.Fatalf("survivor %d: last regrow %+v, want readmission of 2", r, last)
		}
	}
	joiner := results[2]
	if len(joiner.Recoveries) != 0 || len(joiner.Regrows) != 1 {
		t.Fatalf("joiner events: recoveries %+v regrows %+v", joiner.Recoveries, joiner.Regrows)
	}
	if joiner.Rank != 2 {
		t.Fatalf("joiner landed on rank %d, want its original slot 2", joiner.Rank)
	}
	checkCRCsAgree(t, results)
}

// writeCkpt writes a valid v2 checkpoint for step into dir.
func writeCkpt(t *testing.T, dir string, step int64) string {
	t.Helper()
	m := tinyModel(13, 4)
	path := filepath.Join(dir, ckptFileName(step))
	if err := SaveTrainingCheckpointFile(path, m, CaptureTrainState(&Momentum{LR: 0.05, Mu: 0.9}, step)); err != nil {
		t.Fatal(err)
	}
	return path
}

func ckptNames(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "ckpt-*.dnpf"))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(paths))
	for i, p := range paths {
		names[i] = filepath.Base(p)
	}
	return names
}

func gcModel() *models.Model { return tinyModel(13, 4) }

// TestGCCheckpointsKeepsNewestValid: with five valid checkpoints and keep=3,
// GC removes exactly the two oldest.
func TestGCCheckpointsKeepsNewestValid(t *testing.T) {
	dir := t.TempDir()
	for _, step := range []int64{2, 4, 6, 8, 10} {
		writeCkpt(t, dir, step)
	}
	removed, err := GCCheckpoints(dir, 3, gcModel)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("removed %v, want the two oldest", removed)
	}
	want := []string{ckptFileName(6), ckptFileName(8), ckptFileName(10)}
	got := ckptNames(t, dir)
	if len(got) != len(want) {
		t.Fatalf("remaining %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("remaining %v, want %v", got, want)
		}
	}
	// Everything kept still loads.
	for _, name := range got {
		if _, err := LoadTrainingCheckpointFile(filepath.Join(dir, name), gcModel()); err != nil {
			t.Fatalf("kept checkpoint %s no longer valid: %v", name, err)
		}
	}
}

// TestGCCheckpointsCorruptNewestKeepsFallback: a torn newest file must not
// trick the GC into deleting the valid fallbacks that recovery would need —
// validity, not recency, drives retention.
func TestGCCheckpointsCorruptNewestKeepsFallback(t *testing.T) {
	dir := t.TempDir()
	for _, step := range []int64{2, 4, 6} {
		writeCkpt(t, dir, step)
	}
	// Step 8 is the newest file but torn mid-write.
	torn := filepath.Join(dir, ckptFileName(8))
	if err := os.WriteFile(torn, []byte("torn checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	removed, err := GCCheckpoints(dir, 2, gcModel)
	if err != nil {
		t.Fatal(err)
	}
	// Newest two VALID are 6 and 4; only 2 is older than both. The torn
	// file is newer than the cut and stays.
	if len(removed) != 1 || filepath.Base(removed[0]) != ckptFileName(2) {
		t.Fatalf("removed %v, want only %s", removed, ckptFileName(2))
	}
	// The corruption-fallback chain still works end to end: the torn file
	// fails to load and the GC-surviving step-6 file restores.
	if _, err := LoadTrainingCheckpointFile(torn, gcModel()); err == nil {
		t.Fatal("torn checkpoint unexpectedly loads")
	}
	st, err := LoadTrainingCheckpointFile(filepath.Join(dir, ckptFileName(6)), gcModel())
	if err != nil {
		t.Fatalf("fallback checkpoint: %v", err)
	}
	if st.Step != 6 {
		t.Fatalf("fallback restored step %d, want 6", st.Step)
	}
}

// TestGCCheckpointsFewerValidThanKeep: when the directory holds fewer valid
// checkpoints than the retention target, nothing is deleted.
func TestGCCheckpointsFewerValidThanKeep(t *testing.T) {
	dir := t.TempDir()
	writeCkpt(t, dir, 2)
	for _, step := range []int64{4, 6} {
		p := filepath.Join(dir, ckptFileName(step))
		if err := os.WriteFile(p, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := GCCheckpoints(dir, 3, gcModel)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Fatalf("removed %v, want nothing (only one valid checkpoint)", removed)
	}
	if got := ckptNames(t, dir); len(got) != 3 {
		t.Fatalf("remaining %v, want all three files", got)
	}
}
