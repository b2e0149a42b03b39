package train

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dnnperf/internal/data"
	"dnnperf/internal/horovod"
	"dnnperf/internal/models"
	"dnnperf/internal/mpi"
	"dnnperf/internal/telemetry"
)

// Supervisor: elastic checkpoint-restart for data-parallel training. Each
// rank wraps its training loop in Supervise, which periodically checkpoints
// (leader only) and, when a step fails with a typed transport error —
// a rank died — runs the recovery sequence on the survivors:
//
//  1. quiesce the Horovod engine (its loop has usually already latched the
//     failure and exited),
//  2. agree on the survivor set and build a shrunk communicator
//     (mpi.Comm.Shrink, retried with backoff under a fresh epoch),
//  3. restart the engine on the shrunk communicator,
//  4. roll back: rebuild model and optimizer for the new world size, restore
//     the latest valid checkpoint (the new leader reads and validates it,
//     then broadcasts the bytes so every survivor restores identical state),
//  5. re-shard the data pipeline and rescale the learning rate for the new
//     size, and continue training to the target step.
//
// The dead rank's contribution is absorbed by re-sharding: the survivors'
// generators are rebuilt for (new rank, new size) at the resume step, and
// NewOptimizer(newSize) re-derives the LR schedule (linear scaling) for the
// smaller global batch.
//
// Elasticity also runs the other way. A shrink only proceeds when the
// survivors hold a strict majority of the previous world (mpi.ErrNoQuorum
// otherwise): the minority side parks — it produces no optimizer updates,
// which is what eliminates split-brain — and loops in mpi.Rejoin until the
// majority readmits it. Healed or restarted processes (SupervisorConfig.
// Joiner) take the same admission path. The leader drains join requests
// between steps, announces a grow boundary through the Horovod engine's
// readiness negotiation so every member quiesces at the same step, snapshots
// the live training state, grows the communicator (mpi.Comm.Grow), and the
// whole world — members and joiners alike — resumes bit-exactly from the
// broadcast snapshot with shards re-scaled back up.

// Outcome classifies how a supervised run ended.
type Outcome int

const (
	// OutcomeClean: reached the target step with the full world.
	OutcomeClean Outcome = iota
	// OutcomeRecovered: reached the target step after one or more
	// recoveries from rank failure.
	OutcomeRecovered
	// OutcomeFailed: the run could not complete.
	OutcomeFailed
	// OutcomePreempted: the run halted cooperatively at a HaltAt boundary
	// (checkpointing first), so a later run can resume it bit-exactly.
	OutcomePreempted
	// OutcomeKilled: this rank completed its DieAt step and aborted its
	// transport — the injected death its peers must absorb.
	OutcomeKilled
)

func (o Outcome) String() string {
	switch o {
	case OutcomeClean:
		return "clean"
	case OutcomeRecovered:
		return "recovered"
	case OutcomePreempted:
		return "preempted"
	case OutcomeKilled:
		return "killed"
	default:
		return "failed"
	}
}

// RecoveryEvent records one successful recovery.
type RecoveryEvent struct {
	// FailedRanks are the dead ranks, in the numbering of the communicator
	// that failed (the pre-shrink world).
	FailedRanks []int
	OldSize     int
	NewSize     int
	// ResumeStep is the global step training rolled back to.
	ResumeStep int64
	// Latency is the wall time from failure detection to training resumed.
	Latency time.Duration
}

// RegrowEvent records one successful regrow — the world growing back after
// a heal or restart — as seen by this rank (member or joiner side).
type RegrowEvent struct {
	OldSize int
	NewSize int
	// Joined are the readmitted ranks, in root (original job) numbering.
	Joined []int
	// ResumeStep is the global step the regrown world resumed from.
	ResumeStep int64
	// Latency is the wall time from the grow boundary (or, for a joiner,
	// the start of its admission loop) to training resumed.
	Latency time.Duration
}

// SupervisorConfig configures one rank's supervised run.
type SupervisorConfig struct {
	// Comm is the full job's communicator.
	Comm *mpi.Comm
	// Engine configures the Horovod engine (Average is usually true).
	Engine horovod.Config
	// NewModel builds the model deterministically: every call, on every
	// rank, must produce identical initial weights.
	NewModel func() *models.Model
	// NewOptimizer builds the optimizer for a world of the given size, so a
	// shrink can re-derive linearly scaled learning rates.
	NewOptimizer func(worldSize int) Optimizer
	// NewGen builds the data generator for (rank, size) positioned at
	// startStep — the resume point after a rollback.
	NewGen func(rank, size int, startStep int64) (func() data.Batch, error)
	// Steps is the target number of global steps.
	Steps int
	// IntraThreads/InterThreads size the executor (0 = 1).
	IntraThreads int
	InterThreads int
	// CkptDir enables checkpointing when non-empty: the leader writes
	// ckpt-%08d.dnpf files there, and recovery (and bootstrap) restores
	// from the newest valid one.
	CkptDir string
	// CkptEvery is the checkpoint period in steps (default 0 = never).
	CkptEvery int
	// KeepCkpts bounds how many valid checkpoints the leader retains in
	// CkptDir: after each save, files older than the KeepCkpts newest valid
	// ones are garbage-collected (0 = default 3, negative = keep all).
	KeepCkpts int
	// Joiner marks this rank as a healed or restarted process rejoining a
	// running job: bootstrap skips the normal cold start and instead runs
	// the mpi.Rejoin admission loop against the leader, then resumes from
	// the state broadcast by the regrown world.
	Joiner bool
	// RejoinTimeout bounds the admission loop of a parked or restarted rank
	// (0 = the mpi package's default, 30s).
	RejoinTimeout time.Duration
	// RegrowWait keeps the job lingering after the final step while the
	// world is smaller than it started: the leader keeps admitting joiners
	// for this long, so a late rejoiner still lands (0 = don't linger).
	RegrowWait time.Duration
	// AllowMinority opts out of the quorum rule: a shrink that would leave
	// this side with half or fewer of the previous world's ranks proceeds
	// instead of parking. Meant for single-sided tests and tools; a real
	// job that sets it can split-brain.
	AllowMinority bool
	// MaxRecoveries bounds how many rank failures a run survives: at most n
	// for n >= 0 — so the zero value is a rigid run that fails with the typed
	// *mpi.PeerError on the first rank loss — and unlimited when negative.
	MaxRecoveries int
	// ShrinkRetries bounds survivor-agreement attempts per recovery
	// (default 3).
	ShrinkRetries int
	// Backoff is the wait between shrink attempts, doubled each retry
	// (default 50ms).
	Backoff time.Duration
	// Telemetry, if set, is passed to the trainer and records supervisor
	// events: train.recoveries, train.shrink_attempts, train.checkpoints.
	Telemetry *telemetry.Registry
	// Tracer, if set, is passed to the trainer; recoveries additionally
	// land as instant events on the timeline.
	Tracer *telemetry.Tracer
	// Health, if set, mirrors the run's elastic state for the live /healthz
	// endpoint: ok after bootstrap, recovering while a shrink is in
	// progress, degraded (healthy, but smaller world) after a successful
	// recovery. The terminal done/failed transition is the caller's — it
	// knows whether other work follows the supervised run.
	Health *telemetry.Health
	// OnStep, if set, is called on this rank after every successful step
	// with the completed global step number and its statistics. It is the
	// supervised-run hook an external driver (the scenario runner) uses to
	// observe progress, fire step-scheduled events, and inject per-rank
	// slowdowns. Called synchronously on the training goroutine: a sleeping
	// hook slows this rank's next step, exactly like a straggling process.
	// After a rollback the step counter rewinds, so the hook may see the
	// same step number again — fire-once triggers belong to the caller.
	OnStep func(step int64, st StepStats)
	// HaltAt, if set, is polled before every step: a positive return B asks
	// this rank to stop cooperatively once its completed-step counter
	// reaches B, checkpoint (leader, when CkptDir is set) and end the run
	// with OutcomePreempted. Every rank must read the same boundary, and
	// the caller must pick B strictly above the highest completed step at
	// publish time (lockstep bounds the spread to one step, so
	// maxObserved+3 is always safe); all ranks then halt at exactly B with
	// no collective outstanding, which is what makes preemption look like
	// a clean end instead of a rank failure. This is the scheduler's
	// preempt-as-shrink entry point: halt + checkpoint now, regrow later
	// by re-running with the same CkptDir.
	HaltAt func() int64
	// DieAt, if positive, is the injected death: after completing that
	// global step — checkpoint and OnStep included, exactly as a real process
	// would have — the rank aborts its transport without a goodbye and the
	// run ends OutcomeKilled. Ignored on a Joiner: a relaunched process
	// carries its predecessor's config, and the death must not re-fire.
	DieAt int64
}

func (c SupervisorConfig) withDefaults() (SupervisorConfig, error) {
	if c.Comm == nil {
		return c, errors.New("train: supervisor needs a communicator")
	}
	if c.NewModel == nil || c.NewOptimizer == nil || c.NewGen == nil {
		return c, errors.New("train: supervisor needs NewModel, NewOptimizer and NewGen")
	}
	if c.Steps < 1 {
		return c, fmt.Errorf("train: supervisor steps %d < 1", c.Steps)
	}
	if c.ShrinkRetries <= 0 {
		c.ShrinkRetries = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
	if c.KeepCkpts == 0 {
		c.KeepCkpts = 3
	}
	return c, nil
}

// SupervisorResult is one rank's view of a supervised run.
type SupervisorResult struct {
	Outcome    Outcome
	FinalStep  int64
	WorldSize  int // world size at the end of the run
	Rank       int // this rank's id at the end of the run
	Steps      []StepStats
	Recoveries []RecoveryEvent
	// Regrows records each successful world regrowth this rank took part
	// in, on either side of the admission.
	Regrows []RegrowEvent
	// Parked reports that this rank lost quorum and idled — producing no
	// optimizer updates — until readmitted (or the run failed).
	Parked bool
	// ParkedStep is the global step the rank parked at.
	ParkedStep int64
	// WeightsCRC fingerprints the final serialized model and training
	// state. Data-parallel replicas are bit-identical, so every rank that
	// finished the same run must report the same value — disagreement is
	// split-brain evidence. Zero when the run failed.
	WeightsCRC uint32
	// EngineStats are the cumulative Horovod counters, across restarts.
	EngineStats horovod.Stats
}

// incarnation is the per-world-size training state: everything that must be
// rebuilt when the communicator changes.
type incarnation struct {
	comm    *mpi.Comm
	eng     *horovod.Engine
	model   *models.Model
	opt     Optimizer
	trainer *Trainer
	gen     func() data.Batch
}

func (in *incarnation) close() { in.trainer.Close() }

// Supervise runs one rank of a job; it is the tree's only rank loop. All
// ranks of the job must call it; the returned result reflects this rank's
// final view. The error is non-nil only for OutcomeFailed.
//
// The supervisor owns its engine's whole life. A run that ends clean or
// preempted stops it collectively — every rank arrives at the same step
// with nothing outstanding, so the engines halt in one more negotiation
// round, bounded by the transport deadlines — and leaves cfg.Comm idle for
// the caller's closing collectives. A failed or killed rank is fail-stop: it
// aborts its transport, like the process exit it stands for, so the quiesce
// is bounded and its peers see a typed *mpi.PeerError, not a silent engine.
func Supervise(cfg SupervisorConfig) (*SupervisorResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return &SupervisorResult{Outcome: OutcomeFailed}, err
	}
	res := &SupervisorResult{}
	sup := &supervisor{
		cfg:            cfg,
		res:            res,
		recoveries:     cfg.Telemetry.Counter("train.recoveries"),
		regrows:        cfg.Telemetry.Counter("train.regrows"),
		shrinkAttempts: cfg.Telemetry.Counter("train.shrink_attempts"),
		checkpoints:    cfg.Telemetry.Counter("train.checkpoints"),
	}
	err = sup.run()
	if in := sup.in; in != nil {
		ended := err == nil || errors.Is(err, errPreempted)
		if ended {
			if serr := in.eng.Shutdown(); serr != nil {
				err, ended = fmt.Errorf("train: engine shutdown after step %d: %w", sup.step, serr), false
			}
		}
		if ended {
			res.WeightsCRC = weightsCRC(in.model, in.opt, sup.step)
		} else {
			cfg.Comm.Abort()
			in.eng.Quiesce()
		}
		res.EngineStats = in.eng.Stats()
		res.WorldSize = in.comm.Size()
		res.Rank = in.comm.Rank()
		in.close()
	}
	res.FinalStep = sup.step
	switch {
	case errors.Is(err, errKilled):
		res.Outcome = OutcomeKilled
	case errors.Is(err, errPreempted):
		res.Outcome = OutcomePreempted
	case err != nil:
		res.Outcome = OutcomeFailed
		return res, err
	case len(res.Recoveries) > 0 || len(res.Regrows) > 0:
		res.Outcome = OutcomeRecovered
	default:
		res.Outcome = OutcomeClean
	}
	return res, nil
}

// weightsCRC fingerprints the model plus its training state: the CRC-32 of
// their checkpoint serialization, i.e. the trailer the writer appends.
// (Checksumming the blob trailer included gives the residue 0x2144df1c for
// every state.)
func weightsCRC(m *models.Model, opt Optimizer, step int64) uint32 {
	var buf bytes.Buffer
	if err := SaveTrainingCheckpoint(&buf, m, CaptureTrainState(opt, step)); err != nil {
		return 0
	}
	b := buf.Bytes()
	return binary.LittleEndian.Uint32(b[len(b)-4:])
}

type supervisor struct {
	cfg      SupervisorConfig
	res      *SupervisorResult
	in       *incarnation
	step     int64 // completed global steps
	epoch    int   // next shrink/grow epoch
	origSize int   // the job's full world size

	// Leader-only regrow state: the join listener, the joiners pending for
	// the next grow boundary, and whether that boundary has been announced
	// (announce once per batch — moving an announced boundary could split
	// the ranks over which step to quiesce at).
	jl        *mpi.JoinListener
	pending   []mpi.JoinRequest
	announced bool

	// regrowBlob is the leader's live-state snapshot, taken at a grow
	// boundary and consumed by the next live restore().
	regrowBlob []byte

	recoveries     *telemetry.Counter
	regrows        *telemetry.Counter
	shrinkAttempts *telemetry.Counter
	checkpoints    *telemetry.Counter
}

func (s *supervisor) run() error {
	if err := s.bootstrap(); err != nil {
		return err
	}
	s.cfg.Health.Set(telemetry.HealthOK, "world", s.in.comm.Size())
	s.cfg.Health.RecordWorld(s.in.comm.Size())
	recoveries := 0
	for s.step < int64(s.cfg.Steps) {
		if f := s.cfg.HaltAt; f != nil {
			if b := f(); b > 0 && s.step >= b {
				return s.halt()
			}
		}
		// A grow directive quiesces every member at the same step boundary:
		// the announcement rode the readiness negotiation, so no rank can
		// have completed the boundary step without having decoded it.
		if ge, gs, ok := s.in.eng.GrowDirective(); ok && s.step >= gs {
			if err := s.regrow(ge); err != nil {
				return fmt.Errorf("train: regrow at step %d: %w", s.step, err)
			}
			continue
		}
		s.admitJoiners(s.step + 1)
		st, err := s.in.trainer.Step(s.in.gen())
		if err == nil {
			s.step++
			s.res.Steps = append(s.res.Steps, st)
			if cerr := s.maybeCheckpoint(); cerr != nil {
				return fmt.Errorf("train: checkpoint at step %d: %w", s.step, cerr)
			}
			if s.cfg.OnStep != nil {
				s.cfg.OnStep(s.step, st)
			}
			if s.step == s.cfg.DieAt && !s.cfg.Joiner {
				return errKilled
			}
			continue
		}
		pe, ok := mpi.AsPeerError(err)
		if !ok {
			return err // a local failure, not a peer death: not survivable
		}
		if s.cfg.MaxRecoveries >= 0 && recoveries >= s.cfg.MaxRecoveries {
			return fmt.Errorf("train: rank failure after %d recoveries (limit reached): %w",
				recoveries, err)
		}
		if rerr := s.recover([]int{pe.Rank}); rerr != nil {
			return fmt.Errorf("train: recovery from %v: %w", err, rerr)
		}
		recoveries++
	}
	return s.linger()
}

// bootstrap builds the first incarnation. Members start on the full
// communicator, restore the newest valid checkpoint if one exists (cold
// resume), and arm the regrow machinery: every rank enables the transport's
// rejoin acceptor, and the leader starts collecting join requests. A
// configured Joiner — a restarted process — instead goes straight to the
// admission loop.
func (s *supervisor) bootstrap() error {
	s.origSize = s.cfg.Comm.Size()
	mpi.EnableRejoin(s.cfg.Comm)
	if s.cfg.Joiner {
		s.cfg.Health.Set(telemetry.HealthRegrowing, "joiner", true, "root_rank", s.cfg.Comm.Rank())
		if err := s.readmit(time.Now(), nil); err != nil {
			return fmt.Errorf("train: joiner admission: %w", err)
		}
		return nil
	}
	if s.cfg.Comm.Rank() == 0 {
		jl, err := mpi.ListenJoins(s.cfg.Comm)
		if err != nil {
			return fmt.Errorf("train: join listener: %w", err)
		}
		s.jl = jl
	}
	in, err := s.build(s.cfg.Comm, nil, false)
	if err != nil {
		return err
	}
	s.in = in
	return nil
}

// readmit is the way back into a running job for a restarted Joiner and a
// parked minority alike: the mpi.Rejoin admission loop on the job's root
// communicator (TCP listen address and jitter seed derive from this rank's
// root rank), then an incarnation on the grown communicator — prev restarted
// onto it, or a first engine — restored from the state the regrown world
// broadcasts. The regrow log records the round trip since t0.
func (s *supervisor) readmit(t0 time.Time, prev *horovod.Engine) error {
	myRoot := s.cfg.Comm.Rank()
	var addr string
	if addrs := s.cfg.Comm.PeerAddrs(); myRoot < len(addrs) {
		addr = addrs[myRoot]
	}
	newComm, members, epoch, err := mpi.Rejoin(s.cfg.Comm, mpi.RejoinOptions{
		// The wildcard epoch: the majority's epoch advanced an unknown number
		// of shrinks ago, and the leader's stale rejection would teach it to
		// us anyway.
		Epoch:   -1,
		Addr:    addr,
		Timeout: s.cfg.RejoinTimeout,
		Seed:    int64(myRoot) + 1,
		// Both callers know their previous incarnation is gone, so a leader
		// rejection only means its failure detection has not caught up yet.
		RetryRejected: true,
	})
	if err != nil {
		return err
	}
	s.cfg.Health.Set(telemetry.HealthRegrowing, "epoch", epoch)
	s.epoch = epoch + 1
	in, err := s.build(newComm, prev, true)
	if err != nil {
		return err
	}
	s.in = in
	s.res.Regrows = append(s.res.Regrows, RegrowEvent{
		OldSize:    len(members) - 1,
		NewSize:    len(members),
		Joined:     []int{myRoot},
		ResumeStep: s.step,
		Latency:    time.Since(t0),
	})
	s.regrows.Inc()
	return nil
}

// admitJoiners is the leader's between-steps membership duty: drain newly
// arrived join requests into the pending batch and, once a batch exists,
// announce boundary as the step every member will quiesce and grow at.
func (s *supervisor) admitJoiners(boundary int64) {
	if s.jl == nil || s.in.comm.Rank() != 0 {
		return
	}
	if js := s.jl.Drain(s.epoch, s.in.comm.RootMembers()); len(js) > 0 {
		have := make(map[int]bool, len(s.pending))
		for _, j := range s.pending {
			have[j.Root] = true
		}
		for _, j := range js {
			if !have[j.Root] {
				s.pending = append(s.pending, j)
			}
		}
	}
	if len(s.pending) > 0 && !s.announced {
		s.in.eng.AnnounceGrow(s.epoch, boundary)
		s.announced = true
	}
}

// linger handles regrowth pending at or after the final step: first a
// directive whose boundary landed exactly on the last step, then — when
// RegrowWait is set and the world is still short — a window in which the
// leader keeps admitting joiners while the idle engines' negotiations carry
// the boundary announcements.
func (s *supervisor) linger() error {
	if ge, _, ok := s.in.eng.GrowDirective(); ok {
		if err := s.regrow(ge); err != nil {
			return fmt.Errorf("train: regrow after final step: %w", err)
		}
	}
	if s.cfg.RegrowWait <= 0 {
		return nil
	}
	deadline := time.Now().Add(s.cfg.RegrowWait)
	for s.in.comm.Size() < s.origSize && time.Now().Before(deadline) {
		s.admitJoiners(s.step) // boundary already passed: grow immediately
		if ge, gs, ok := s.in.eng.GrowDirective(); ok && s.step >= gs {
			if err := s.regrow(ge); err != nil {
				return fmt.Errorf("train: regrow while lingering: %w", err)
			}
			continue
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// build constructs an incarnation on comm: model, optimizer sized for the
// world, restore (from the leader's live state when live is set, else from
// CkptDir), re-sharded generator, trainer. The engine — prev restarted onto
// comm, or the run's first when prev is nil — is created only after the
// restore broadcast has completed: a running engine issues its own
// collectives on comm, and the MPI usage rule allows one collective at a
// time per communicator — starting it earlier would interleave negotiation
// frames with the checkpoint blob.
func (s *supervisor) build(comm *mpi.Comm, prev *horovod.Engine, live bool) (*incarnation, error) {
	model := s.cfg.NewModel()
	opt := s.cfg.NewOptimizer(comm.Size())
	step, err := s.restore(comm, model, opt, live)
	if err != nil {
		return nil, err
	}
	s.step = step
	if int64(len(s.res.Steps)) > step {
		// Roll the step log back with the training state.
		s.res.Steps = s.res.Steps[:step]
	}
	gen, err := s.cfg.NewGen(comm.Rank(), comm.Size(), step)
	if err != nil {
		return nil, err
	}
	var eng *horovod.Engine
	if prev == nil {
		eng = horovod.NewEngine(comm, s.cfg.Engine)
	} else {
		eng = prev.Restart(comm)
	}
	tr, err := New(Config{
		Model:        model,
		IntraThreads: s.cfg.IntraThreads,
		InterThreads: s.cfg.InterThreads,
		Optimizer:    opt,
		Engine:       eng,
		Rank:         comm.Rank(),
		Telemetry:    s.cfg.Telemetry,
		Tracer:       s.cfg.Tracer,
	})
	if err != nil {
		return nil, err
	}
	return &incarnation{comm: comm, eng: eng, model: model, opt: opt, trainer: tr, gen: gen}, nil
}

// recover runs the shrink-and-resume sequence after a step failed with a
// typed peer error naming a suspect.
func (s *supervisor) recover(suspects []int) error {
	t0 := time.Now()
	old := s.in
	oldSize := old.comm.Size()
	s.cfg.Health.Set(telemetry.HealthRecovering, "suspects", suspects, "old_size", oldSize)
	// The engine's loop has latched the failure; make its exit deterministic
	// before negotiating the new world.
	old.eng.Quiesce()

	var newComm *mpi.Comm
	var survivors []int
	var err error
	backoff := s.cfg.Backoff
	noQuorum := 0
	for attempt := 0; attempt < s.cfg.ShrinkRetries; attempt++ {
		s.shrinkAttempts.Inc()
		newComm, survivors, err = old.comm.Shrink(suspects,
			mpi.ShrinkOptions{Epoch: s.epoch, AllowMinority: s.cfg.AllowMinority})
		s.epoch++
		if err == nil {
			break
		}
		if errors.Is(err, mpi.ErrEvicted) {
			return err // the survivors voted this rank out; do not rejoin
		}
		if errors.Is(err, mpi.ErrNoQuorum) {
			// This side counted half or fewer of the world alive. Training
			// on would be split-brain — but a single verdict can also be a
			// transient false minority (survivors still waiting out their
			// collectives' deadlines look dead). Park only once the verdict
			// repeats or the retry budget is gone; a real partition returns
			// the same count every time.
			if noQuorum++; noQuorum >= 2 || attempt == s.cfg.ShrinkRetries-1 {
				return s.park(old)
			}
			time.Sleep(backoff)
			backoff *= 2
			continue
		}
		// A rank died mid-protocol: carry the evidence into the next attempt.
		if pe, ok := mpi.AsPeerError(err); ok {
			suspects = append(suspects, pe.Rank)
		}
		time.Sleep(backoff)
		backoff *= 2
	}
	if err != nil {
		return fmt.Errorf("survivor agreement failed after %d attempts: %w", s.cfg.ShrinkRetries, err)
	}

	// Any grow boundary announced on the old engines died with them; the
	// leader re-announces its pending batch at the post-shrink epoch.
	s.announced = false
	old.close()
	in, err := s.build(newComm, old.eng, false)
	if err != nil {
		return err
	}
	s.in = in

	failed := make([]int, 0, oldSize-len(survivors))
	alive := make(map[int]bool, len(survivors))
	for _, r := range survivors {
		alive[r] = true
	}
	for r := 0; r < oldSize; r++ {
		if !alive[r] {
			failed = append(failed, r)
		}
	}
	s.res.Recoveries = append(s.res.Recoveries, RecoveryEvent{
		FailedRanks: failed,
		OldSize:     oldSize,
		NewSize:     newComm.Size(),
		ResumeStep:  s.step,
		Latency:     time.Since(t0),
	})
	s.recoveries.Inc()
	s.cfg.Health.Set(telemetry.HealthDegraded,
		"failed_ranks", failed, "new_size", newComm.Size(), "recoveries", len(s.res.Recoveries))
	s.cfg.Health.RecordWorld(newComm.Size())
	s.cfg.Tracer.CompleteArgs("train.recovery", "elastic", 0, t0, time.Since(t0), map[string]any{
		"failed_ranks": failed,
		"old_size":     oldSize,
		"new_size":     newComm.Size(),
		"resume_step":  s.step,
		"latency_us":   time.Since(t0).Microseconds(),
	})
	return nil
}

// park is the minority side of a quorum split. The rank must not train — a
// minority producing optimizer updates IS split-brain — so it idles in the
// admission loop until the majority readmits it (or RejoinTimeout expires
// and the run fails). On readmission it rebuilds from the broadcast state
// like any joiner; its recovery log stays empty and its regrow log records
// the round trip.
func (s *supervisor) park(old *incarnation) error {
	t0 := time.Now()
	myRoot := s.cfg.Comm.Rank()
	s.res.Parked = true
	s.res.ParkedStep = s.step
	s.cfg.Health.Set(telemetry.HealthParked, "step", s.step, "root_rank", myRoot)
	old.close()
	if err := s.readmit(t0, old.eng); err != nil {
		return fmt.Errorf("train: parked rank not readmitted: %w", err)
	}
	size := s.in.comm.Size()
	s.cfg.Health.Set(telemetry.HealthOK, "world", size, "rejoined", true)
	s.cfg.Health.RecordWorld(size)
	s.cfg.Tracer.CompleteArgs("train.rejoin", "elastic", 0, t0, time.Since(t0), map[string]any{
		"root_rank":   myRoot,
		"new_size":    size,
		"resume_step": s.step,
		"latency_us":  time.Since(t0).Microseconds(),
	})
	return nil
}

// regrow executes one grow boundary: quiesce the engine, snapshot the live
// training state (leader), admit the pending joiners into a grown
// communicator, and rebuild everything on it — every rank, joiners
// included, resumes bit-exactly from the snapshot broadcast. A failed admit
// is not fatal: the current world is still valid, so the members rebuild on
// it and keep training shrunk while the joiners back off and retry.
func (s *supervisor) regrow(epoch int) error {
	t0 := time.Now()
	old := s.in
	oldSize := old.comm.Size()
	oldRoots := old.comm.RootMembers()
	s.cfg.Health.Set(telemetry.HealthRegrowing, "old_size", oldSize, "epoch", epoch)
	old.eng.Quiesce()

	if old.comm.Rank() == 0 {
		var buf bytes.Buffer
		if err := SaveTrainingCheckpoint(&buf, old.model, CaptureTrainState(old.opt, s.step)); err != nil {
			return fmt.Errorf("train: regrow snapshot: %w", err)
		}
		s.regrowBlob = buf.Bytes()
	}

	newComm, members, gerr := old.comm.Grow(s.pending, mpi.GrowOptions{Epoch: epoch})
	s.epoch = epoch + 1
	s.pending, s.announced = nil, false
	if gerr != nil {
		newComm = old.comm // still a valid world: rebuild on it, shrunk
	}
	old.close()
	in, err := s.build(newComm, old.eng, true)
	if err != nil {
		return errors.Join(gerr, err)
	}
	s.in = in
	if gerr != nil {
		s.cfg.Health.Set(telemetry.HealthDegraded, "grow_error", gerr.Error())
		return nil
	}

	wasMember := make(map[int]bool, len(oldRoots))
	for _, r := range oldRoots {
		wasMember[r] = true
	}
	joined := make([]int, 0, len(members)-len(oldRoots))
	for _, r := range members {
		if !wasMember[r] {
			joined = append(joined, r)
		}
	}
	s.res.Regrows = append(s.res.Regrows, RegrowEvent{
		OldSize:    oldSize,
		NewSize:    newComm.Size(),
		Joined:     joined,
		ResumeStep: s.step,
		Latency:    time.Since(t0),
	})
	s.regrows.Inc()
	s.cfg.Health.Set(telemetry.HealthOK,
		"world", newComm.Size(), "joined", joined, "regrows", len(s.res.Regrows))
	s.cfg.Health.RecordWorld(newComm.Size())
	s.cfg.Tracer.CompleteArgs("train.regrow", "elastic", 0, t0, time.Since(t0), map[string]any{
		"joined":      joined,
		"old_size":    oldSize,
		"new_size":    newComm.Size(),
		"resume_step": s.step,
		"latency_us":  time.Since(t0).Microseconds(),
	})
	return nil
}

// maybeCheckpoint writes a v2 checkpoint on the leader at the configured
// period. Step s.step has just completed.
func (s *supervisor) maybeCheckpoint() error {
	if s.cfg.CkptDir == "" || s.cfg.CkptEvery <= 0 || s.in.comm.Rank() != 0 {
		return nil
	}
	if s.step%int64(s.cfg.CkptEvery) != 0 {
		return nil
	}
	t0 := time.Now()
	path := filepath.Join(s.cfg.CkptDir, ckptFileName(s.step))
	if err := SaveTrainingCheckpointFile(path, s.in.model, CaptureTrainState(s.in.opt, s.step)); err != nil {
		return err
	}
	s.checkpoints.Inc()
	s.cfg.Tracer.CompleteArgs("train.checkpoint", "train", 0, t0, time.Since(t0), map[string]any{
		"step": s.step,
	})
	if s.cfg.KeepCkpts > 0 {
		// Best effort: a GC hiccup must not fail training — the next save
		// retries it.
		GCCheckpoints(s.cfg.CkptDir, s.cfg.KeepCkpts, s.cfg.NewModel)
	}
	return nil
}

func ckptFileName(step int64) string { return fmt.Sprintf("ckpt-%08d.dnpf", step) }

// run()'s two non-failure endings, which Supervise maps to their outcomes with
// a nil error: errPreempted when a HaltAt boundary is reached, errKilled when
// the DieAt step has completed.
var (
	errPreempted = errors.New("train: preempted")
	errKilled    = errors.New("train: killed at DieAt")
)

// halt ends the run at a preemption boundary: the leader force-writes a
// checkpoint at the current step (ignoring the CkptEvery cadence — this is
// the state the resumed job restores), then every rank returns the
// preemption sentinel. All ranks reach the same boundary before any engine
// tears down, so no peer observes the halt as a failure.
func (s *supervisor) halt() error {
	t0 := time.Now()
	if s.cfg.CkptDir != "" && s.in.comm.Rank() == 0 {
		path := filepath.Join(s.cfg.CkptDir, ckptFileName(s.step))
		if err := SaveTrainingCheckpointFile(path, s.in.model, CaptureTrainState(s.in.opt, s.step)); err != nil {
			return fmt.Errorf("train: preemption checkpoint at step %d: %w", s.step, err)
		}
		s.checkpoints.Inc()
	}
	s.cfg.Health.Set(telemetry.HealthParked, "preempted_step", s.step)
	s.cfg.Tracer.CompleteArgs("train.preempt", "elastic", 0, t0, time.Since(t0), map[string]any{
		"preempted_step": s.step,
	})
	return errPreempted
}

// restore rolls model and opt to the newest valid checkpoint, coordinated
// across comm: the leader reads candidate files newest-first, validates the
// first loadable one against a scratch model, and broadcasts its bytes (an
// empty broadcast means fresh start). Every rank then restores from the same
// bytes, so the rolled-back state is identical everywhere — no rank ever
// reads the directory mid-rename. During a regrow the leader broadcasts its
// live-state snapshot instead, so the grown world (joiners included) resumes
// from the exact pre-grow state with no rollback and no checkpoint files.
// Returns the restored global step.
func (s *supervisor) restore(comm *mpi.Comm, model *models.Model, opt Optimizer, live bool) (int64, error) {
	if !live && s.cfg.CkptDir == "" {
		return 0, nil
	}
	var blob []byte
	if comm.Rank() == 0 {
		if live {
			blob, s.regrowBlob = s.regrowBlob, nil
		} else {
			blob = s.newestValidCheckpoint()
		}
	}
	blob, err := comm.BcastBytes(blob, 0)
	if err != nil {
		return 0, fmt.Errorf("train: checkpoint broadcast: %w", err)
	}
	if len(blob) == 0 {
		return 0, nil // no checkpoint: deterministic fresh start on all ranks
	}
	st, err := LoadTrainingCheckpoint(bytes.NewReader(blob), model)
	if err != nil {
		return 0, fmt.Errorf("train: checkpoint restore: %w", err)
	}
	if err := RestoreTrainState(model, opt, st); err != nil {
		return 0, err
	}
	return st.Step, nil
}

// newestValidCheckpoint returns the bytes of the newest checkpoint in
// CkptDir that fully validates against a scratch model, or nil if none do.
// Older files are fallbacks: a torn or corrupt newest file (the leader died
// mid-save before the atomic rename made it durable) must not stop recovery.
func (s *supervisor) newestValidCheckpoint() []byte {
	paths, err := filepath.Glob(filepath.Join(s.cfg.CkptDir, "ckpt-*.dnpf"))
	if err != nil || len(paths) == 0 {
		return nil
	}
	// %08d-padded step numbers sort lexicographically; newest first.
	sort.Sort(sort.Reverse(sort.StringSlice(paths)))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		scratch := s.cfg.NewModel()
		if _, err := LoadTrainingCheckpoint(bytes.NewReader(b), scratch); err != nil {
			continue
		}
		return b
	}
	return nil
}
