package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dnnperf/internal/data"
	"dnnperf/internal/graph"
	"dnnperf/internal/horovod"
	"dnnperf/internal/job"
	"dnnperf/internal/models"
	"dnnperf/internal/mpi"
	"dnnperf/internal/tensor"
	"dnnperf/internal/train"
)

// stepLog is rank 0's record of one training run.
type stepLog struct {
	setup   time.Duration // run start -> end of the last warm-up step
	elapsed time.Duration // end of the last warm-up step -> end of the last measured step
	mallocs uint64        // over the same interval, process-wide
	// per measured step, in ms: StepStats.Duration, StepStats.CommWait, and
	// the step-end to step-end period (which adds data generation and
	// whatever the caller does between steps)
	step, wait, period []float64
	warmLoss, loss     []float64
	firstStart         time.Time // start of step 1
	lastEnd            time.Time
}

// observer turns a stream of rank-0 steps into a stepLog: warm-up first,
// then the measured phase until seconds have passed.
type observer struct {
	log       *stepLog
	warm      int64
	seconds   float64 // measured phase; 0 = no time limit
	maxSteps  int     // probes: stop after this many measured steps (0 = no limit)
	start     time.Time
	measStart time.Time
	last      time.Time
	m0        uint64
	// stopAt is the last step any rank of a benchmark-owned loop runs. Rank 0
	// decides after finishing step i and allows one more: rank 1 may already
	// be inside step i+1, but cannot finish it, and so cannot read stopAt
	// again, before rank 0 joins. With neither limit the run ends with the
	// warm-up steps.
	stopAt atomic.Int64
}

func newObserver(warm int, seconds float64, maxSteps int) *observer {
	o := &observer{log: &stepLog{}, warm: int64(warm), seconds: seconds, maxSteps: maxSteps, start: time.Now()}
	o.stopAt.Store(math.MaxInt64)
	if seconds == 0 && maxSteps == 0 {
		o.stopAt.Store(o.warm)
	}
	return o
}

// step records one completed step of rank 0 and reports whether the measured
// phase has run its length.
func (o *observer) step(n int64, st train.StepStats) (done bool) {
	now := time.Now()
	l := o.log
	if n == 1 {
		l.firstStart = now.Add(-st.Duration)
	}
	l.lastEnd = now
	if n <= o.warm {
		l.warmLoss = append(l.warmLoss, st.Loss)
		if n == o.warm {
			l.setup = now.Sub(o.start)
			o.m0 = mallocs()
			o.measStart = time.Now()
			o.last = o.measStart
		}
		return false
	}
	l.step = append(l.step, ms(st.Duration))
	l.wait = append(l.wait, ms(st.CommWait))
	l.period = append(l.period, ms(now.Sub(o.last)))
	l.loss = append(l.loss, st.Loss)
	o.last = now
	done = (o.seconds > 0 && now.Sub(o.measStart).Seconds() >= o.seconds) || (o.maxSteps > 0 && len(l.step) >= o.maxSteps)
	if done && o.stopAt.Load() == math.MaxInt64 {
		o.stopAt.Store(n + 1)
	}
	return done
}

// close fixes the measured interval at the last recorded step.
func (o *observer) close() {
	if len(o.log.step) == 0 {
		return
	}
	o.log.elapsed = o.last.Sub(o.measStart)
	o.log.mallocs = mallocs() - o.m0
}

// checkLoss is the training output check: every loss finite, and the mean of
// the last 50 measured steps below half the mean of the first 10 warm-up
// steps.
func checkLoss(warm, measured []float64) error {
	for _, l := range append(append([]float64(nil), warm...), measured...) {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("loss check: non-finite loss %v", l)
		}
	}
	if len(warm) == 0 || len(measured) == 0 {
		return fmt.Errorf("loss check: no steps (%d warm-up, %d measured)", len(warm), len(measured))
	}
	first := warm[:min(10, len(warm))]
	last := measured[max(0, len(measured)-50):]
	if a, b := mean(last), mean(first); !(a < 0.5*b) {
		return fmt.Errorf("loss check: mean of last %d steps %.4f is not below half of the first %d warm-up steps' %.4f", len(last), a, len(first), b)
	}
	return nil
}

// checkHashes is the replica output check: data-parallel ranks hold
// bit-identical weights.
func checkHashes(h []uint64) error {
	for r := 1; r < len(h); r++ {
		if h[r] != h[0] {
			return fmt.Errorf("weights check: rank %d hash %016x differs from rank 0's %016x", r, h[r], h[0])
		}
	}
	return nil
}

// hashWeights is FNV-1a over the bits of every variable, in graph order.
// job.Result.WeightsCRC cannot serve: it is the same constant for every run
// (README, Findings).
func hashWeights(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range g.Variables() {
		for _, f := range v.Value.Data() {
			u := math.Float32bits(f)
			b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// ---------------------------------------------------------------- train_dp2_inproc

func inprocSpec(c config) job.Spec {
	return job.Spec{
		Name: "train_dp2_inproc", Nodes: 1, PPN: ranks, Batch: batch, Seed: c.seed,
		IntraThreads: 1, InterThreads: 1,
	}
}

// runJob launches the spec through job.InprocBackend, as dnnsched and the
// scenario runner do. With seconds > 0 the job is given an unbounded step
// budget and halted through RunContext.Preempt once the measured phase has
// run its length; with seconds == 0 it ends after the warm-up steps.
func runJob(c config, seconds float64, rec *recorder) (*stepLog, time.Duration, error) {
	spec := inprocSpec(c)
	spec.Steps = c.sz.WarmTrain
	want := "clean"
	if seconds > 0 {
		spec.Steps, want = math.MaxInt32, "preempted"
	}
	if err := spec.Validate(); err != nil {
		return nil, 0, err
	}
	rc := &job.RunContext{Spec: spec}
	obs := newObserver(c.sz.WarmTrain, seconds, 0)
	runSpan := rec.begin("Backend.Run", 0, 0, 0)
	rc.OnStep = func(rank int, step int64, st train.StepStats) {
		if rank != 0 {
			return
		}
		rec.add("Trainer.Step", int(step), runSpan, 0, time.Now().Add(-st.Duration), st.Duration)
		if obs.step(step, st) {
			rc.Preempt() // idempotent
		}
	}
	res, err := job.InprocBackend{}.Run(rc)
	rec.end(runSpan)
	wall := time.Since(obs.start)
	if err != nil {
		return nil, 0, err
	}
	if res.Outcome != want {
		return nil, 0, fmt.Errorf("train_dp2_inproc: job ended %q, want %q", res.Outcome, want)
	}
	obs.close()
	return obs.log, wall, nil
}

func runTrainInproc(c config) (*result, error) {
	if c.trace {
		return traceTrainInproc(c)
	}
	m, log, err := measureSteps(c, func(seconds float64) (*stepLog, error) {
		log, _, err := runJob(c, seconds, nil)
		return log, err
	})
	if err != nil {
		return nil, err
	}
	res := newResult("train_dp2_inproc", m.ops, checkLoss(log.warmLoss, log.loss))
	res.Metrics, err = m.metrics(c)
	return res, err
}

// measureSteps is the untraced run of a step workload: SetupReps-1 runs that
// stop after their warm-up, for the set-up time alone, then the measured run,
// whose log it returns.
func measureSteps(c config, run func(seconds float64) (*stepLog, error)) (*measured, *stepLog, error) {
	m := &measured{}
	for i := 1; i < c.sz.SetupReps; i++ {
		log, err := run(0)
		if err != nil {
			return nil, nil, err
		}
		m.setup = append(m.setup, log.setup.Seconds())
		debug.FreeOSMemory() // a discarded set-up's garbage must not count towards peak_rss_mb
	}
	log, err := run(c.seconds)
	if err != nil {
		return nil, nil, err
	}
	m.setup = append(m.setup, log.setup.Seconds())
	m.ops = len(log.step)
	m.rate = float64(m.ops) / log.elapsed.Seconds()
	m.step = log.step
	m.mallocs = log.mallocs
	return m, log, nil
}

// ---------------------------------------------------------------- train_dp2_tcp_widefc

// wideFC is the FC-head profile models.AlexNet's comment recommends for
// gradient-volume effects, without the convolutions: Flatten -> Dense
// 768xH -> ReLU -> Dense HxH -> ReLU -> Dense Hx10. At H = 2048 it has
// 5.79 M parameters in 6 tensors, 23.2 MB of gradients per step.
func wideFC(hidden int) *models.Model {
	const classes, modelSeed = 10, 7
	g := graph.New()
	x := g.Input("images", batch, 3, 16, 16)
	t := g.Apply(graph.FlattenOp{}, "flatten", x)
	nVars := int64(0)
	dense := func(name string, in *graph.Node, out int) *graph.Node {
		inF := in.Shape()[1]
		idx := nVars
		nVars++
		w := g.Variable(name+"_w", []int{inF, out}, func(shape []int) *tensor.Tensor {
			return tensor.NewRNG(modelSeed*1000003+idx).HeInit(inF, shape...)
		})
		b := g.Variable(name+"_b", []int{out}, graph.Zeros)
		return g.Apply(graph.DenseOp{}, name, in, w, b)
	}
	t = g.Apply(graph.ReLUOp{}, "relu1", dense("fc1", t, hidden))
	t = g.Apply(graph.ReLUOp{}, "relu2", dense("fc2", t, hidden))
	logits := dense("fc3", t, classes)
	return &models.Model{Name: "widefc", G: g, Input: x, Logits: logits, Cfg: models.Config{Batch: batch, ImageSize: 16, Classes: classes, Seed: modelSeed}}
}

// trainJob is a benchmark-owned data-parallel loop over the public train,
// horovod and mpi APIs. job.Spec cannot select a model for a real backend,
// so train_dp2_tcp_widefc drives the layers directly; the probes reuse it.
type trainJob struct {
	comms    []*mpi.Comm // one per rank; nil = a single rank without an engine
	engine   horovod.Config
	newModel func() *models.Model
	newOpt   func() train.Optimizer
	newGen   func(rank int) (func() data.Batch, error)
	warm     int
	seconds  float64 // measured phase; 0 = stop after the warm-up steps
	maxSteps int
	rec      *recorder
}

// run trains on every rank and returns rank 0's log and each rank's final
// weight hash.
func (j *trainJob) run() (*stepLog, []uint64, error) {
	n := max(1, len(j.comms))
	obs := newObserver(j.warm, j.seconds, j.maxSteps)
	hashes := make([]uint64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			hashes[r], errs[r] = j.rank(r, obs)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	obs.close()
	return obs.log, hashes, nil
}

func (j *trainJob) rank(r int, obs *observer) (hash uint64, err error) {
	model := j.newModel()
	cfg := train.Config{Model: model, IntraThreads: 1, InterThreads: 1, Optimizer: j.newOpt(), Rank: r}
	if j.comms != nil {
		cfg.Engine = horovod.NewEngine(j.comms[r], j.engine)
		defer func() {
			// Every rank shuts down from its own goroutine: an engine waits
			// for all the others to signal shutdown too.
			if serr := cfg.Engine.Shutdown(); err == nil {
				err = serr
			}
		}()
	}
	tr, err := train.New(cfg)
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	gen, err := j.newGen(r)
	if err != nil {
		return 0, err
	}
	for step := int64(1); step <= obs.stopAt.Load(); step++ {
		rec := j.rec
		if step <= int64(j.warm) {
			rec = nil
		}
		id := rec.begin("data.Next", int(step), 0, r)
		b := gen()
		rec.end(id)
		id = rec.begin("Trainer.Step", int(step), 0, r)
		st, err := tr.Step(b)
		rec.end(id)
		if err != nil {
			if j.comms != nil {
				j.comms[r].Abort() // unblock the peers
			}
			return 0, err
		}
		if r == 0 {
			obs.step(step, st)
		}
	}
	return hashWeights(model.G), nil
}

// wideFCJob is the train_dp2_tcp_widefc loop on the given communicators.
func wideFCJob(c config, comms []*mpi.Comm) *trainJob {
	return &trainJob{
		comms:    comms,
		engine:   horovod.Config{CycleTime: 300 * time.Microsecond, Average: true},
		newModel: func() *models.Model { return wideFC(c.sz.HiddenWideFC) },
		newOpt:   func() train.Optimizer { return train.NewMomentum(0.002, 0.9) },
		newGen: func(rank int) (func() data.Batch, error) {
			gen, err := data.NewLearnable(batch, 3, 16, 10, data.Shard(c.seed, rank))
			if err != nil {
				return nil, err
			}
			return gen.Next, nil
		},
		warm: c.sz.WarmWideFC,
	}
}

func closeComms(comms []*mpi.Comm) {
	var wg sync.WaitGroup
	for _, cm := range comms {
		wg.Add(1)
		go func(cm *mpi.Comm) {
			defer wg.Done()
			cm.Close() // a TCP close waits for the peers' goodbyes
		}(cm)
	}
	wg.Wait()
}

// runWideFC sets the TCP job up, trains, and tears it down. The returned
// set-up time counts from before the rendezvous.
func runWideFC(c config, seconds float64, rec *recorder) (*stepLog, []uint64, error) {
	start := time.Now()
	comms, err := mpi.StartLocalTCPJob(ranks)
	if err != nil {
		return nil, nil, err
	}
	defer closeComms(comms)
	rendezvous := time.Since(start)
	j := wideFCJob(c, comms)
	j.seconds, j.rec = seconds, rec
	log, hashes, err := j.run()
	if err != nil {
		return nil, nil, err
	}
	log.setup += rendezvous
	return log, hashes, nil
}

func runTrainWideFC(c config) (*result, error) {
	if c.trace {
		return traceTrainWideFC(c)
	}
	var hashes []uint64
	m, log, err := measureSteps(c, func(seconds float64) (log *stepLog, err error) {
		log, hashes, err = runWideFC(c, seconds, nil)
		return log, err
	})
	if err != nil {
		return nil, err
	}
	res := newResult("train_dp2_tcp_widefc", m.ops, checkLoss(log.warmLoss, log.loss), checkHashes(hashes))
	res.Metrics, err = m.metrics(c)
	return res, err
}
