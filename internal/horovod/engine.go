// Package horovod implements a Horovod-style distributed training engine on
// top of the mpi package: a background coordination thread per rank that
// negotiates tensor readiness every cycle, fuses ready gradients into large
// buffers (Tensor Fusion), and executes fused allreduces.
//
// The two runtime knobs the reproduced paper studies are modeled exactly:
//
//   - Config.CycleTime — HOROVOD_CYCLE_TIME, how often the background engine
//     wakes up to negotiate. Longer cycles batch more tensors per
//     negotiation, trading latency for fewer, larger allreduces.
//   - Config.FusionThreshold — HOROVOD_FUSION_THRESHOLD, the fusion buffer
//     capacity in bytes.
//
// The engine also exposes the profiling counters the paper's authors added
// to Horovod: the number of allreduce operations requested by the DL
// framework versus the number of fused allreduce operations the engine
// actually issued (Figures 18 and 19).
package horovod

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dnnperf/internal/mpi"
	"dnnperf/internal/telemetry"
)

// DefaultCycleTime matches Horovod's default HOROVOD_CYCLE_TIME of 3.5 ms,
// quoted in the paper's profiling section.
const DefaultCycleTime = 3500 * time.Microsecond

// DefaultFusionThreshold matches Horovod's default 64 MiB fusion buffer.
const DefaultFusionThreshold = 64 << 20

// Config holds the engine's runtime parameters.
type Config struct {
	// CycleTime is the background-loop wake-up period (0 = default).
	CycleTime time.Duration
	// FusionThreshold is the fusion buffer capacity in bytes (0 = default).
	FusionThreshold int
	// Average divides results by the job size after summing, yielding the
	// averaged gradients data-parallel SGD wants.
	Average bool
	// GroupSize, when > 1, uses the hierarchical allreduce (intra-group +
	// leader ring + broadcast) with this many consecutive ranks per group —
	// the MVAPICH2-on-a-cluster topology where a group is one node.
	GroupSize int
	// Telemetry, when set, backs the engine's profiling counters with this
	// registry (horovod.* metrics). Stats() reads the same handles, so the
	// exported values are identical to the snapshot by construction. Nil
	// keeps the counters on detached handles — same behavior, not exported.
	Telemetry *telemetry.Registry
	// Tracer, when set, records each fused allreduce as a comm-lane span in
	// the Chrome trace, and negotiation cycles that executed work as
	// instants.
	Tracer *telemetry.Tracer
	// Timeline, when set (and Tracer is non-nil), additionally emits the
	// Horovod timeline: per-tensor lifecycle spans (SUBMITTED ->
	// NEGOTIATING -> QUEUED -> FUSED -> ALLREDUCE -> DONE) on one lane per
	// tensor, plus a cycle-boundary instant per engine wake-up — the
	// HOROVOD_TIMELINE view of fusion and negotiation behavior.
	Timeline bool
}

func (c Config) withDefaults() Config {
	if c.CycleTime <= 0 {
		c.CycleTime = DefaultCycleTime
	}
	if c.FusionThreshold <= 0 {
		c.FusionThreshold = DefaultFusionThreshold
	}
	return c
}

// Stats are the engine's profiling counters (cumulative).
type Stats struct {
	// FrameworkRequests counts allreduce operations submitted by the DL
	// framework (one per gradient tensor per step).
	FrameworkRequests int64
	// EngineAllreduces counts fused MPI allreduce operations the engine
	// issued — the "Allreduce operations called by Horovod Engine" series
	// in the paper's Figures 18/19.
	EngineAllreduces int64
	// Cycles counts negotiation rounds executed.
	Cycles int64
	// FusedBytes is the total payload moved through fused allreduces.
	FusedBytes int64
	// MaxFusedTensors is the largest number of tensors fused into a single
	// allreduce.
	MaxFusedTensors int
	// ControlBytes counts readiness-announcement bytes this rank sent.
	ControlBytes int64
	// CachedAnnouncements counts tensors announced via the response cache
	// (a single bit on the wire instead of the full name).
	CachedAnnouncements int64
	// NamedAnnouncements counts tensors announced by full name (cache miss).
	NamedAnnouncements int64
	// Restarts counts elastic restarts onto a new communicator.
	Restarts int64
}

// engineMetrics holds the engine's pre-registered telemetry handles. All
// updates are single atomic ops on these handles and Stats() reads the same
// handles back, so the exported horovod.* metrics and the Stats struct can
// never disagree. A nil registry hands out detached handles (telemetry's
// nil-Registry contract), so the engine is instrumented unconditionally.
type engineMetrics struct {
	frameworkRequests   *telemetry.Counter
	engineAllreduces    *telemetry.Counter
	cycles              *telemetry.Counter
	fusedBytes          *telemetry.Counter
	controlBytes        *telemetry.Counter
	cachedAnnouncements *telemetry.Counter
	namedAnnouncements  *telemetry.Counter
	restarts            *telemetry.Counter
	maxFusedTensors     *telemetry.Gauge
	fusedTensors        *telemetry.Histogram // tensors per fused allreduce
}

func newEngineMetrics(reg *telemetry.Registry) *engineMetrics {
	return &engineMetrics{
		frameworkRequests:   reg.Counter("horovod.framework_requests"),
		engineAllreduces:    reg.Counter("horovod.engine_allreduces"),
		cycles:              reg.Counter("horovod.cycles"),
		fusedBytes:          reg.Counter("horovod.fused_bytes"),
		controlBytes:        reg.Counter("horovod.control_bytes"),
		cachedAnnouncements: reg.Counter("horovod.cached_announcements"),
		namedAnnouncements:  reg.Counter("horovod.named_announcements"),
		restarts:            reg.Counter("horovod.restarts"),
		maxFusedTensors:     reg.Gauge("horovod.max_fused_tensors"),
		fusedTensors:        reg.Histogram("horovod.fused_tensors", telemetry.CountBuckets),
	}
}

type pendingTensor struct {
	name string
	data []float32
	done func(error)
}

type cacheEntry struct {
	name string
	size int
}

// Engine is one rank's Horovod engine instance.
type Engine struct {
	comm   *mpi.Comm
	cfg    Config
	met    *engineMetrics
	tracer *telemetry.Tracer
	tl     *timeline // Horovod timeline (nil unless Config.Timeline)

	mu        sync.Mutex
	submitted []*pendingTensor          // ready, not yet negotiated
	inFlight  map[string]*pendingTensor // negotiated name -> tensor
	shutdown  bool
	termErr   error // transport failure that killed the loop, latched

	// Elastic grow directive, piggybacked on the readiness negotiation.
	// announceGrow* is what THIS rank attaches to its announcements (the
	// leader sets it via AnnounceGrow); gotGrow* is the highest-epoch
	// directive observed from ANY rank's announcement, read back through
	// GrowDirective. Epoch -1 means none.
	announceGrowEpoch int32
	announceGrowStep  int64
	gotGrowEpoch      int32
	gotGrowStep       int64

	// Response cache: stable tensor names get small ids after their first
	// negotiation, so later steps announce readiness with one bit per
	// tensor. Ids are assigned deterministically (sorted executable names),
	// keeping all ranks' caches identical without extra messages.
	cacheByName map[string]uint32
	cacheByID   []cacheEntry

	// parts is the fused batch handed to mpi.Comm.AllreduceParts: the
	// batch's tensors themselves, so fusion is a list of slices rather than
	// a staging copy. Reused across batches; touched only by the loop
	// goroutine (executeBatch), so it needs no lock.
	parts [][]float32

	// step is the training step the next collectives belong to, stamped
	// into causal trace contexts (SetStep; atomic because the trainer sets
	// it from its own goroutine while the loop reads it).
	step atomic.Int64

	// wake kicks the loop out of its cycle sleep early (buffered, capacity
	// 1): shutdown and quiesce requests should not wait out a long
	// CycleTime before the loop notices them.
	wake chan struct{}

	loopDone chan struct{}
	loopErr  error
}

// NewEngine starts the background engine on comm. Every rank of the job
// must create its engine; the background loops synchronize through
// collectives each cycle.
func NewEngine(comm *mpi.Comm, cfg Config) *Engine {
	e := &Engine{
		comm:        comm,
		cfg:         cfg.withDefaults(),
		met:         newEngineMetrics(cfg.Telemetry),
		tracer:      cfg.Tracer,
		inFlight:    make(map[string]*pendingTensor),
		cacheByName: make(map[string]uint32),
		wake:        make(chan struct{}, 1),
		loopDone:    make(chan struct{}),

		announceGrowEpoch: -1,
		gotGrowEpoch:      -1,
	}
	if cfg.Timeline {
		e.tl = newTimeline(cfg.Tracer)
	}
	// Arm cross-rank causal tracing whenever a tracer is present: collective
	// frames carry a TraceCtx and the merged trace gains send->recv flow
	// arrows. Restart re-arms the replacement communicator the same way.
	comm.SetFlowTracer(cfg.Tracer)
	go e.loop()
	return e
}

// SetStep records the training step the next submitted collectives belong
// to; it annotates causal trace contexts. Safe from any goroutine.
func (e *Engine) SetStep(step int64) { e.step.Store(step) }

// requestStop flags the loop to stop and kicks it out of its cycle sleep.
func (e *Engine) requestStop() {
	e.mu.Lock()
	e.shutdown = true
	e.mu.Unlock()
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// AllreduceAsync submits a gradient tensor for reduction. done is invoked
// (from the engine goroutine) when data has been reduced in place, or with
// an error. Names must be unique among in-flight tensors, as in Horovod.
//
// The reduction runs in data itself — there is no fusion staging copy — so
// the caller must not touch data until done fires, and after an error its
// contents are unspecified (partially reduced). Recovery re-runs the step
// from a checkpoint, which recomputes the gradients anyway.
func (e *Engine) AllreduceAsync(name string, data []float32, done func(error)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.shutdown {
		if e.termErr != nil {
			// The background loop died on a transport failure: surface the
			// typed cause (errors.As finds the mpi.PeerError) instead of
			// queueing a tensor that could never be negotiated.
			return fmt.Errorf("horovod: engine stopped: %w", e.termErr)
		}
		return fmt.Errorf("horovod: engine is shut down")
	}
	if _, dup := e.inFlight[name]; dup {
		return fmt.Errorf("horovod: tensor %q already in flight", name)
	}
	for _, p := range e.submitted {
		if p.name == name {
			return fmt.Errorf("horovod: tensor %q already submitted", name)
		}
	}
	e.submitted = append(e.submitted, &pendingTensor{name: name, data: data, done: done})
	e.met.frameworkRequests.Inc()
	e.tl.transition(name, phaseSubmitted)
	return nil
}

// AnnounceGrow attaches an elastic-grow directive (membership epoch, step
// boundary) to this rank's future readiness announcements. The supervising
// leader calls it after completing step growStep-1 and before submitting
// step growStep's tensors, so no rank can complete growStep without first
// decoding an announcement carrying the directive — every rank therefore
// quiesces at exactly the same step. The directive stays attached until the
// engine is quiesced for the regrow.
func (e *Engine) AnnounceGrow(epoch int, step int64) {
	e.mu.Lock()
	e.announceGrowEpoch = int32(epoch)
	e.announceGrowStep = step
	e.mu.Unlock()
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// GrowDirective returns the highest-epoch grow directive observed in any
// rank's readiness announcement, or ok=false if none has been seen.
func (e *Engine) GrowDirective() (epoch int, step int64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gotGrowEpoch < 0 {
		return 0, 0, false
	}
	return int(e.gotGrowEpoch), e.gotGrowStep, true
}

// Allreduce is the blocking convenience wrapper around AllreduceAsync. As
// there, data is reduced in place and is unspecified after an error.
func (e *Engine) Allreduce(name string, data []float32) error {
	ch := make(chan error, 1)
	if err := e.AllreduceAsync(name, data, func(err error) { ch <- err }); err != nil {
		return err
	}
	return <-ch
}

// Stats returns a snapshot of the profiling counters. The values are read
// from the engine's telemetry handles — the same handles a Registry snapshot
// exports — so the two views agree exactly.
func (e *Engine) Stats() Stats {
	return Stats{
		FrameworkRequests:   e.met.frameworkRequests.Value(),
		EngineAllreduces:    e.met.engineAllreduces.Value(),
		Cycles:              e.met.cycles.Value(),
		FusedBytes:          e.met.fusedBytes.Value(),
		MaxFusedTensors:     int(e.met.maxFusedTensors.Value()),
		ControlBytes:        e.met.controlBytes.Value(),
		CachedAnnouncements: e.met.cachedAnnouncements.Value(),
		NamedAnnouncements:  e.met.namedAnnouncements.Value(),
		Restarts:            e.met.restarts.Value(),
	}
}

// Shutdown signals the engine to stop once all ranks have also called
// Shutdown and all negotiated work is drained, then waits for the loop to
// exit. Tensors still queued locally but never globally negotiated fail
// with an error. If the loop already died on a transport failure, Shutdown
// returns that failure (errors.As recovers the mpi.PeerError).
func (e *Engine) Shutdown() error {
	e.requestStop()
	<-e.loopDone
	return e.loopErr
}

// loop is the background coordination thread: sleep a cycle, negotiate
// readiness with all ranks, execute the agreed fused allreduces.
func (e *Engine) loop() {
	defer close(e.loopDone)
	timer := time.NewTimer(e.cfg.CycleTime)
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
		case <-e.wake:
			if !timer.Stop() {
				<-timer.C
			}
		}
		timer.Reset(e.cfg.CycleTime)

		e.mu.Lock()
		ready := e.submitted
		e.submitted = nil
		for _, p := range ready {
			e.inFlight[p.name] = p
		}
		down := e.shutdown
		e.met.cycles.Inc()
		cyc := e.met.cycles.Value()
		e.mu.Unlock()

		for _, p := range ready {
			e.tl.transition(p.name, phaseNegotiating)
		}
		halt, batches, err := e.negotiate(ready, down)
		if err != nil {
			e.fail(fmt.Errorf("horovod: negotiation: %w", err))
			return
		}
		e.tl.cycle(int(cyc), len(ready), len(batches))
		for _, batch := range batches {
			e.tl.transitionAll(batch, phaseQueued)
		}
		for _, batch := range batches {
			if err := e.executeBatch(batch); err != nil {
				e.fail(fmt.Errorf("horovod: fused allreduce: %w", err))
				return
			}
		}
		if halt {
			e.drain(errors.New("horovod: engine shut down before tensor was negotiated"))
			return
		}
	}
}

// fail terminates the engine after a transport or negotiation failure:
// every pending tensor completes with err (so blocked Allreduce callers
// return it instead of stalling), future submissions are rejected with the
// same cause, and Shutdown reports it.
func (e *Engine) fail(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.shutdown = true
	e.termErr = err
	e.loopErr = err
	for _, p := range e.inFlight {
		p.done(err)
		e.tl.abort(p.name)
	}
	for _, p := range e.submitted {
		p.done(err)
		e.tl.abort(p.name)
	}
	e.inFlight = map[string]*pendingTensor{}
	e.submitted = nil
}

// drain is the clean-shutdown path: tensors submitted locally but never
// globally negotiated complete with err (nil loopErr if none were pending).
func (e *Engine) drain(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	pend := 0
	for _, p := range e.inFlight {
		p.done(err)
		e.tl.abort(p.name)
		pend++
	}
	for _, p := range e.submitted {
		p.done(err)
		e.tl.abort(p.name)
		pend++
	}
	e.inFlight = map[string]*pendingTensor{}
	e.submitted = nil
	if pend > 0 {
		e.loopErr = err
	}
}

// negotiate exchanges every rank's complete in-flight announcement and
// derives the coordinated decision: whether to halt, and the fusion batches
// (ordered name groups) every rank must now execute identically. Because
// all ranks see identical post-allgather inputs and apply the same
// deterministic rule, the decision needs no separate response broadcast.
func (e *Engine) negotiate(_ []*pendingTensor, down bool) (halt bool, batches [][]string, err error) {
	e.mu.Lock()
	var names []string
	var sizes []int
	var bits []byte
	for n, p := range e.inFlight {
		if id, ok := e.cacheByName[n]; ok {
			if e.cacheByID[id].size != len(p.data) {
				e.mu.Unlock()
				return false, nil, fmt.Errorf("tensor %q size changed (%d vs cached %d)",
					n, len(p.data), e.cacheByID[id].size)
			}
			bits = setBit(bits, id)
			e.met.cachedAnnouncements.Inc()
		} else {
			names = append(names, n)
			sizes = append(sizes, len(p.data))
			e.met.namedAnnouncements.Inc()
		}
	}
	growEpoch := e.announceGrowEpoch
	growStep := e.announceGrowStep
	e.mu.Unlock()

	msg := encodeReadiness(down, growEpoch, growStep, bits, names, sizes)
	e.met.controlBytes.Add(int64(len(msg)))
	e.comm.BeginFlow(e.step.Load())
	parts, err := e.comm.AllgatherBytes(msg)
	e.comm.EndFlow()
	if err != nil {
		return false, nil, err
	}

	type tinfo struct {
		count int
		size  int
	}
	allDown := true
	info := map[string]*tinfo{}
	anyAnnounced := 0
	announce := func(n string, size int) error {
		ti := info[n]
		if ti == nil {
			ti = &tinfo{size: size}
			info[n] = ti
			anyAnnounced++
		} else if ti.size != size {
			return fmt.Errorf("tensor %q size mismatch across ranks (%d vs %d)", n, ti.size, size)
		}
		ti.count++
		return nil
	}
	for _, part := range parts {
		d, ge, gs, bs, ns, szs, derr := decodeReadiness(part)
		if derr != nil {
			return false, nil, derr
		}
		allDown = allDown && d
		if ge >= 0 {
			e.mu.Lock()
			if ge > e.gotGrowEpoch {
				e.gotGrowEpoch, e.gotGrowStep = ge, gs
			}
			e.mu.Unlock()
		}
		var bitErr error
		forEachBit(bs, func(id uint32) {
			if bitErr != nil {
				return
			}
			if int(id) >= len(e.cacheByID) {
				bitErr = fmt.Errorf("unknown cached tensor id %d", id)
				return
			}
			ce := e.cacheByID[id]
			bitErr = announce(ce.name, ce.size)
		})
		if bitErr != nil {
			return false, nil, bitErr
		}
		for i, n := range ns {
			if err := announce(n, szs[i]); err != nil {
				return false, nil, err
			}
		}
	}

	// A tensor is executable once every rank has announced it.
	executable := make([]string, 0, anyAnnounced)
	for n, ti := range info {
		if ti.count == e.comm.Size() {
			executable = append(executable, n)
		}
	}
	sort.Strings(executable) // deterministic order across ranks

	// Admit newly executable names into the response cache in the same
	// deterministic order on every rank.
	for _, n := range executable {
		if _, ok := e.cacheByName[n]; !ok {
			e.cacheByName[n] = uint32(len(e.cacheByID))
			e.cacheByID = append(e.cacheByID, cacheEntry{name: n, size: info[n].size})
		}
	}

	// Fuse under the threshold, preserving order.
	var cur []string
	curBytes := 0
	for _, n := range executable {
		sz := 4 * info[n].size
		if len(cur) > 0 && curBytes+sz > e.cfg.FusionThreshold {
			batches = append(batches, cur)
			cur, curBytes = nil, 0
		}
		cur = append(cur, n)
		curBytes += sz
	}
	if len(cur) > 0 {
		batches = append(batches, cur)
	}

	halt = allDown && anyAnnounced == len(executable)
	return halt, batches, nil
}

// executeBatch allreduces the named tensors as one fused batch — in place,
// the tensors themselves being the parts of the fused buffer — and
// completes each tensor's callback.
func (e *Engine) executeBatch(names []string) error {
	e.mu.Lock()
	tensors := make([]*pendingTensor, len(names))
	total := 0
	for i, n := range names {
		p := e.inFlight[n]
		if p == nil {
			e.mu.Unlock()
			return fmt.Errorf("negotiated unknown tensor %q", n)
		}
		tensors[i] = p
		total += len(p.data)
	}
	for _, n := range names {
		delete(e.inFlight, n)
	}
	e.mu.Unlock()

	e.tl.transitionAll(names, phaseFused)
	parts := e.parts[:0]
	for _, p := range tensors {
		parts = append(parts, p.data)
	}
	e.parts = parts
	e.tl.transitionAll(names, phaseAllreduce)
	sp := e.tracer.Begin("horovod.allreduce", "comm", telemetry.CommLane)
	e.comm.BeginFlow(e.step.Load())
	// Under AlgAuto a fused batch always takes the bandwidth-optimal ring;
	// GroupSize > 1 selects the hierarchical scheme whatever the algorithm.
	alg := e.comm.AllreduceAlgorithm()
	if alg == mpi.AlgAuto {
		alg = mpi.AlgRing
	}
	err := e.comm.AllreduceParts(alg, e.cfg.GroupSize, parts, mpi.OpSum)
	e.comm.EndFlow()
	sp.End()
	clear(parts) // drop the tensor references until the next batch
	e.met.engineAllreduces.Inc()
	e.met.fusedBytes.Add(int64(4 * total))
	e.met.maxFusedTensors.SetMax(float64(len(tensors)))
	e.met.fusedTensors.Observe(int64(len(tensors)))
	if err != nil {
		// Hand the batch back for fail to complete: it latches the
		// shutdown before any callback runs, so a caller woken by the
		// error finds resubmission already rejected.
		e.mu.Lock()
		for _, p := range tensors {
			e.inFlight[p.name] = p
		}
		e.mu.Unlock()
		return err
	}
	inv := 1 / float32(e.comm.Size())
	for _, p := range tensors {
		if e.cfg.Average {
			for i := range p.data {
				p.data[i] *= inv
			}
		}
		p.done(nil)
		e.tl.done(p.name, map[string]any{
			"bytes": 4 * len(p.data),
			"fused": len(tensors),
		})
	}
	return nil
}
