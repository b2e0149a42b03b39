package train

import (
	"sync"
	"testing"
	"time"

	"dnnperf/internal/mpi"
	"dnnperf/internal/telemetry"
)

// watchHealth samples a Health until done, recording each distinct state in
// transition order.
func watchHealth(h *telemetry.Health, done <-chan struct{}) func() []string {
	var mu sync.Mutex
	var states []string
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		for {
			state, _, _ := h.Get()
			mu.Lock()
			if len(states) == 0 || states[len(states)-1] != state {
				states = append(states, state)
			}
			mu.Unlock()
			select {
			case <-done:
				// One final sample so the terminal state is never missed.
				state, _, _ := h.Get()
				mu.Lock()
				if states[len(states)-1] != state {
					states = append(states, state)
				}
				mu.Unlock()
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()
	return func() []string {
		<-stop
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), states...)
	}
}

// TestSuperviseHealthTransitions: the supervisor drives the /healthz state
// machine through an elastic kill-and-recover — starting while
// bootstrapping, ok once training, recovering during the shrink, degraded
// after it — and Healthy() flips accordingly.
func TestSuperviseHealthTransitions(t *testing.T) {
	w, err := mpi.NewWorldOpts(3, mpi.WorldOptions{RecvTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const steps, dieAfter = 8, 3

	health := telemetry.NewHealth()
	if health.Healthy() {
		t.Fatal("fresh Health must not be healthy (starting)")
	}
	done := make(chan struct{})
	collect := watchHealth(health, done)

	var wg sync.WaitGroup
	results := make([]*SupervisorResult, 2)
	errs := make([]error, 3)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := elasticConfig(w.Comm(r), steps, dir)
			if r == 0 {
				cfg.Health = health // rank 0 hosts the endpoint
			}
			results[r], errs[r] = Supervise(cfg)
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[2] = runDoomedRank(t, w.Comm(2), dir, dieAfter)
	}()
	wg.Wait()
	close(done)

	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if results[0].Outcome != OutcomeRecovered {
		t.Fatalf("outcome %v, want recovered", results[0].Outcome)
	}

	states := collect()
	want := []string{telemetry.HealthStarting, telemetry.HealthOK,
		telemetry.HealthRecovering, telemetry.HealthDegraded}
	// The sampler may miss a brief state under load, but the observed
	// sequence must be a subsequence-preserving walk of the expected one:
	// every observed state appears in `want` order.
	wi := 0
	for _, s := range states {
		for wi < len(want) && want[wi] != s {
			wi++
		}
		if wi == len(want) {
			t.Fatalf("unexpected health walk %v (state %q out of order vs %v)", states, s, want)
		}
	}
	// The load-bearing edges must have been seen: ok before the failure,
	// recovering during it, degraded after.
	seen := map[string]bool{}
	for _, s := range states {
		seen[s] = true
	}
	for _, must := range []string{telemetry.HealthOK, telemetry.HealthRecovering, telemetry.HealthDegraded} {
		if !seen[must] {
			t.Errorf("health never reported %q (walk: %v)", must, states)
		}
	}

	// Terminal state after recovery is degraded-but-healthy: the job is
	// serving with fewer ranks.
	state, _, detail := health.Get()
	if state != telemetry.HealthDegraded {
		t.Errorf("final state %q, want degraded", state)
	}
	if !health.Healthy() {
		t.Error("degraded must remain healthy (HTTP 200)")
	}
	if detail["new_size"] != 2 {
		t.Errorf("degraded detail = %v, want new_size 2", detail)
	}

	// During recovery Healthy() must have been false at least at the
	// recovering sample (can't re-check now; assert via the recorded walk
	// plus the state mapping pinned in telemetry's own tests).
}

// TestSuperviseHealthCleanRun: without failures the walk is just
// starting -> ok; degraded and recovering never appear.
func TestSuperviseHealthCleanRun(t *testing.T) {
	w, err := mpi.NewWorldOpts(2, mpi.WorldOptions{RecvTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	health := telemetry.NewHealth()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := elasticConfig(w.Comm(r), 4, dir)
			if r == 0 {
				cfg.Health = health
			}
			_, errs[r] = Supervise(cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	state, _, detail := health.Get()
	if state != telemetry.HealthOK {
		t.Errorf("clean-run final state %q, want ok", state)
	}
	if detail["world"] != 2 {
		t.Errorf("detail = %v, want world 2", detail)
	}
}
