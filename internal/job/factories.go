package job

import (
	"dnnperf/internal/data"
	"dnnperf/internal/horovod"
	"dnnperf/internal/models"
	"dnnperf/internal/mpi"
	"dnnperf/internal/telemetry"
	"dnnperf/internal/train"
)

// Factories builds the deterministic model/optimizer/generator builders
// every rank of a real job shares — the single definition the mpirun
// workers, the experiment runner, and the scenario harness all delegate to.
// The model seed is fixed (identical initial weights are a correctness
// requirement); data shards derive from the spec seed; the optimizer follows
// LRPolicy: constant momentum, or the linear-scaling warmup schedule sized
// to the current world's global batch so an elastic shrink re-derives the
// rate.
func (s *Spec) Factories() (newModel func() *models.Model, newOpt func(int) train.Optimizer, newGen func(rank, size int, startStep int64) (func() data.Batch, error)) {
	batch, seed, policy := s.Batch, s.Seed, s.LRPolicy
	newModel = func() *models.Model {
		return models.TinyCNN(models.Config{Batch: batch, ImageSize: 16, Classes: 4, Seed: 7})
	}
	newOpt = func(worldSize int) train.Optimizer {
		if policy == "scaled" {
			sched, err := train.LinearScaled(0.05, batch, worldSize*batch, 2, nil)
			if err != nil {
				sched = train.Constant{Rate: 0.05}
			}
			return &train.ScheduledOptimizer{Sched: sched, Inner: train.NewMomentum(0.05, 0.9)}
		}
		return train.NewMomentum(0.05, 0.9)
	}
	newGen = func(rank, size int, startStep int64) (func() data.Batch, error) {
		gen, err := data.NewLearnable(batch, 3, 16, 4, data.Shard(seed, rank))
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

// EngineConfig renders the spec's Horovod engine settings.
func (s *Spec) EngineConfig() horovod.Config {
	return horovod.Config{CycleTime: s.CycleTime.D(), Average: true}
}

// SupervisorConfig renders the spec into one rank's supervised-run config
// bound to comm. Callers layer on their own observability (Telemetry,
// Tracer, Health, OnStep, HaltAt) and the Joiner mark — everything the spec
// schema owns is filled here: regrow_wait bounds both sides of a regrow (the
// finished ranks' linger and a parked or restarted rank's admission loop),
// and the die_rank crash demo is the doomed rank's death step.
func (s *Spec) SupervisorConfig(comm *mpi.Comm) train.SupervisorConfig {
	newModel, newOpt, newGen := s.Factories()
	var dieAt int64
	if s.DieRank != nil && *s.DieRank == comm.Rank() {
		dieAt = s.DieStep
	}
	return train.SupervisorConfig{
		Comm:          comm,
		Engine:        s.EngineConfig(),
		NewModel:      newModel,
		NewOptimizer:  newOpt,
		NewGen:        newGen,
		Steps:         s.Steps,
		IntraThreads:  s.IntraThreads,
		InterThreads:  s.InterThreads,
		CkptDir:       s.CkptDir,
		CkptEvery:     s.CkptEvery,
		MaxRecoveries: s.MaxRecoveries,
		RegrowWait:    s.RegrowWait.D(),
		RejoinTimeout: s.RegrowWait.D(),
		DieAt:         dieAt,
	}
}

// WrapComm is the per-rank staging step every live launch shares (the Fleet
// for each of its slots, an mpirun worker process for its single rank): raw
// communicator → fault transport at rates fc → transport counters when reg
// is set → a communicator carrying the spec's collective tuning. The fault
// transport comes back too, for partitions, rate swaps and its statistics.
func (s *Spec) WrapComm(raw *mpi.Comm, fc mpi.FaultConfig, reg *telemetry.Registry) (*mpi.Comm, *mpi.FaultTransport, error) {
	ft := mpi.NewFaultTransport(raw.Endpoint(), fc)
	comm := mpi.NewComm(mpi.Instrument(ft, reg))
	if reg != nil {
		comm.SetTelemetry(reg)
	}
	if s.AllreduceAlg != "" && s.AllreduceAlg != "auto" {
		alg, err := mpi.ParseAllreduceAlg(s.AllreduceAlg)
		if err != nil {
			return nil, nil, err
		}
		if err := comm.SetAllreduceAlg(alg); err != nil {
			return nil, nil, err
		}
	}
	if s.SegmentBytes > 0 {
		comm.SetSegmentBytes(s.SegmentBytes)
	}
	return comm, ft, nil
}

// FaultConfig renders the spec's fault template for one transport, anchored
// to the spec seed so every random stream replays.
func (s *Spec) FaultConfig() mpi.FaultConfig {
	if s.Faults == nil {
		return mpi.FaultConfig{Seed: s.Seed}
	}
	return mpi.FaultConfig{
		Seed:      s.Seed,
		DropProb:  s.Faults.DropProb,
		DelayProb: s.Faults.DelayProb,
		Delay:     s.Faults.Delay.D(),
		DupProb:   s.Faults.DupProb,
	}
}
