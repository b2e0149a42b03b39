package mpi

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// FaultConfig configures deterministic fault injection on a FaultTransport.
// Probabilities are per Send; the random stream is seeded from Seed and the
// wrapped endpoint's rank, so a job-wide seed yields decorrelated but fully
// reproducible per-rank fault sequences.
type FaultConfig struct {
	// Seed is the base seed for the per-rank random stream.
	Seed int64
	// DropProb is the probability a Send is silently discarded. The
	// receiver never sees the frame, so its Recv deadline converts the
	// drop into a typed ErrTimeout PeerError.
	DropProb float64
	// DelayProb is the probability a Send sleeps Delay before delivering,
	// modeling a slow link or a straggling peer.
	DelayProb float64
	// Delay is the injected latency for delayed sends.
	Delay time.Duration
	// DupProb is the probability a Send is delivered twice. Duplicates are
	// absorbed by the receiver's out-of-tag queue within one collective;
	// across collectives that reuse tags they model real wire corruption.
	DupProb float64
}

// FaultStats counts injected faults (cumulative).
type FaultStats struct {
	Sent       int64 // Sends that reached the inner transport at least once
	Dropped    int64 // Sends discarded by DropProb
	Delayed    int64 // Sends delayed by DelayProb
	Duplicated int64 // Sends delivered twice by DupProb
	Blocked    int64 // Sends discarded by an active partition
}

// FaultTransport wraps an Endpoint with seeded, per-rank fault injection:
// probabilistic drop/delay/duplicate plus explicit rank-pair partitions. It
// is how tests and the cmd/mpirun demo exercise the failure paths the
// robustness layer exists for, without real network faults.
type FaultTransport struct {
	inner Endpoint
	cfg   FaultConfig

	mu      sync.Mutex
	rng     *rand.Rand
	blocked map[int]bool
	stats   FaultStats
}

// NewFaultTransport wraps inner with the given fault configuration.
func NewFaultTransport(inner Endpoint, cfg FaultConfig) *FaultTransport {
	return &FaultTransport{
		inner:   inner,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed*1000003 + int64(inner.Rank()))),
		blocked: make(map[int]bool),
	}
}

// Partition severs this rank's link toward peer: every Send to peer is
// silently discarded until Heal, so the peer observes the partition as a
// Recv deadline expiry (a typed ErrTimeout PeerError), exactly like a
// network partition. Call it on both sides' transports for a full cut.
func (f *FaultTransport) Partition(peer int) {
	f.mu.Lock()
	f.blocked[peer] = true
	f.mu.Unlock()
}

// Heal restores the link toward peer.
func (f *FaultTransport) Heal(peer int) {
	f.mu.Lock()
	delete(f.blocked, peer)
	f.mu.Unlock()
}

// PartitionAll severs this rank's link toward every peer, isolating it
// from the job — the send half of a full network partition. Pair it with
// Partition(rank) on every peer's transport for a symmetric cut.
func (f *FaultTransport) PartitionAll() {
	f.mu.Lock()
	for peer := 0; peer < f.inner.Size(); peer++ {
		if peer != f.inner.Rank() {
			f.blocked[peer] = true
		}
	}
	f.mu.Unlock()
}

// HealAll restores every severed link.
func (f *FaultTransport) HealAll() {
	f.mu.Lock()
	f.blocked = make(map[int]bool)
	f.mu.Unlock()
}

// SetConfig swaps the fault-rate template mid-run — the scheduled
// escalation a chaos timeline wants (e.g. start clean, then raise DropProb
// at t=2s). The per-rank random stream is preserved across the swap, so a
// run that applies the same template changes at the same positions in each
// rank's send sequence replays identically. If cfg.Seed differs from the
// current seed the stream is re-derived from the new seed instead, which
// re-anchors determinism to the swap point itself.
func (f *FaultTransport) SetConfig(cfg FaultConfig) {
	f.mu.Lock()
	if cfg.Seed != f.cfg.Seed {
		f.rng = rand.New(rand.NewSource(cfg.Seed*1000003 + int64(f.inner.Rank())))
	}
	f.cfg = cfg
	f.mu.Unlock()
}

// Config returns the active fault-rate template.
func (f *FaultTransport) Config() FaultConfig {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cfg
}

// Stats returns a snapshot of the fault counters.
func (f *FaultTransport) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Rank returns the wrapped endpoint's rank.
func (f *FaultTransport) Rank() int { return f.inner.Rank() }

// Size returns the wrapped endpoint's job size.
func (f *FaultTransport) Size() int { return f.inner.Size() }

// decide draws one Send's fault outcome under the lock so the sequence is
// deterministic even with concurrent senders, and so the delay it returns
// (zero = none) is read from the same config snapshot as the draw — SetConfig
// may swap the template mid-run. discard covers both an active partition and
// a probabilistic drop.
func (f *FaultTransport) decide(to int) (discard bool, delay time.Duration, dup bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.blocked[to] {
		f.stats.Blocked++
		return true, 0, false
	}
	if f.cfg.DropProb > 0 && f.rng.Float64() < f.cfg.DropProb {
		f.stats.Dropped++
		return true, 0, false
	}
	if f.cfg.DelayProb > 0 && f.cfg.Delay > 0 && f.rng.Float64() < f.cfg.DelayProb {
		delay = f.cfg.Delay
		f.stats.Delayed++
	}
	if f.cfg.DupProb > 0 && f.rng.Float64() < f.cfg.DupProb {
		dup = true
		f.stats.Duplicated++
	}
	f.stats.Sent++
	return false, delay, dup
}

// Send delivers m through the inner transport, subject to the configured
// faults. Exactly one decide() draw happens per logical send whatever m
// carries, so arming causal tracing or pooled frames does not perturb a
// seeded fault sequence. A discarded owned frame is released to the pool.
func (f *FaultTransport) Send(to int, tag uint32, m Msg) error {
	discard, delay, dup := f.decide(to)
	if discard {
		m.release()
		return nil
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	if !dup {
		return f.inner.Send(to, tag, m)
	}
	// Duplicated: the original goes first as a borrowed copy carrying the
	// trace context, then m itself — ownership included — ships unstamped as
	// the duplicate: one flow arrow per logical send.
	if err := f.inner.Send(to, tag, Msg{Buf: m.Buf, Ctx: m.Ctx}); err != nil {
		m.release()
		return err
	}
	m.Ctx = TraceCtx{}
	if err := f.inner.Send(to, tag, m); err != nil {
		return fmt.Errorf("mpi: fault duplicate: %w", err)
	}
	return nil
}

// Recv passes through: faults are injected on the send side only.
func (f *FaultTransport) Recv(from int, tag uint32) ([]byte, error) {
	return f.inner.Recv(from, tag)
}

// Close closes the inner endpoint.
func (f *FaultTransport) Close() error { return f.inner.Close() }

// Unwrap exposes the wrapped endpoint so optional capabilities (tag
// subscriptions) resolve through the fault-injection layer. Injected faults
// apply on the send side, so subscribed traffic still sees them.
func (f *FaultTransport) Unwrap() Endpoint { return f.inner }

// Abort forwards an abrupt teardown to the inner endpoint.
func (f *FaultTransport) Abort() { f.inner.Abort() }
