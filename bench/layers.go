package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dnnperf/internal/data"
	"dnnperf/internal/graph"
	"dnnperf/internal/horovod"
	"dnnperf/internal/models"
	"dnnperf/internal/mpi"
	"dnnperf/internal/telemetry"
	"dnnperf/internal/tensor"
	"dnnperf/internal/train"
)

// The traced runs. Each measures its workload's layers from outside: short
// benchmark-owned loops ("probes") call the layers' public functions on the
// same model, tensor set and transport as the workload, with a span around
// every call. End-to-end metrics never come from here.

// budget reports how much of an observed time the per-layer terms explain;
// the remainder is a number, not hidden.
func budget(p *metrics, observedMs, explainedMs float64) {
	p.set("bench.budget_explained_ms", explainedMs)
	p.set("bench.budget_unexplained_ms", observedMs-explainedMs)
	p.set("bench.budget_unexplained_frac", (observedMs-explainedMs)/observedMs)
}

// finishTrace writes the spans out and closes the per-layer table.
func finishTrace(c config, res *result, p *metrics, rec *recorder) (*result, error) {
	if err := rec.write(filepath.Join(c.outDir, "trace-"+res.Workload+".json")); err != nil {
		return nil, err
	}
	res.Spans = rec.summary()
	var err error
	res.Metrics, err = p.finish(true)
	return res, err
}

// gemm is a matrix product shape: [m,k] x [k,n].
type gemm struct{ m, k, n int }

// matmulGFLOPs times tensor.MatMul at one shape for about 0.3 s.
func matmulGFLOPs(s gemm) float64 {
	arena := tensor.NewArena()
	base := tensor.NewPool(1)
	defer base.Close()
	pool := base.WithArena(arena)
	rng := tensor.NewRNG(1)
	a, b := rng.Uniform(-1, 1, s.m, s.k), rng.Uniform(-1, 1, s.k, s.n)
	calls := 0
	start := time.Now()
	for time.Since(start) < 300*time.Millisecond {
		arena.Put(tensor.MatMul(pool, a, b))
		calls++
	}
	return 2 * float64(s.m) * float64(s.k) * float64(s.n) * float64(calls) / time.Since(start).Seconds() / 1e9
}

// conv2dGFLOPs times tensor.Conv2D on TinyCNN's second convolution
// ([4,16,8,8] input, 32 3x3 filters, padding 1) for about 0.3 s.
func conv2dGFLOPs() float64 {
	arena := tensor.NewArena()
	base := tensor.NewPool(1)
	defer base.Close()
	pool := base.WithArena(arena)
	rng := tensor.NewRNG(1)
	x, k := rng.Uniform(-1, 1, batch, 16, 8, 8), rng.Uniform(-1, 1, 32, 16, 3, 3)
	spec := tensor.ConvSpec{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	calls := 0
	start := time.Now()
	for time.Since(start) < 300*time.Millisecond {
		arena.Put(tensor.Conv2D(pool, x, k, spec))
		calls++
	}
	return float64(tensor.ConvFLOPs(batch, 16, 32, 8, 8, 3, 3)) * float64(calls) / time.Since(start).Seconds() / 1e9
}

// decomposedSteps is a single-rank training step taken apart, so that the
// executor and the optimizer are timed by direct calls: what Trainer.Step
// does without an engine, with a span around each layer call. The op
// profile is on the same executor, so kernel time and executor time come
// from the same calls and their difference is the executor's own.
func decomposedSteps(model *models.Model, opt train.Optimizer, gen func() data.Batch, steps int, rec *recorder) (*graph.Profile, error) {
	intra := tensor.NewPool(1)
	defer intra.Close()
	ex := graph.NewExecutor(model.G, intra, 1)
	ex.UseArena(tensor.NewArena())
	prof := graph.NewProfile()
	feeds := map[*graph.Node]*tensor.Tensor{}
	const warm = 5
	for i := 1; i <= warm+steps; i++ {
		r := rec
		if i <= warm {
			r = nil
		} else {
			ex.Prof = prof
		}
		b := gen()
		step := r.begin("bench.decomposed_step", i, 0, 0)
		model.G.ZeroGrads()
		feeds[model.Input] = b.Images
		id := r.begin("Executor.Forward", i, step, 0)
		st, err := ex.Forward(feeds)
		r.end(id)
		if err != nil {
			return nil, err
		}
		_, grad := tensor.CrossEntropyLoss(ex.KernelPool(), st.Value(model.Logits), b.Labels)
		id = r.begin("Executor.Backward", i, step, 0)
		err = ex.Backward(st, model.Logits, grad)
		r.end(id)
		if err != nil {
			return nil, err
		}
		id = r.begin("Optimizer.Step", i, step, 0)
		opt.Step(intra, model.G)
		r.end(id)
		ex.Arena().Put(grad)
		st.Release()
		r.end(step)
	}
	return prof, nil
}

// instrumented wraps each communicator's endpoint in mpi.Instrument, so a
// probe can count the frames and bytes its exchange puts on the wire.
func instrumented(comms []*mpi.Comm) ([]*mpi.Comm, []*telemetry.Registry) {
	out := make([]*mpi.Comm, len(comms))
	regs := make([]*telemetry.Registry, len(comms))
	for r, cm := range comms {
		regs[r] = telemetry.New()
		out[r] = mpi.NewComm(mpi.Instrument(cm.Endpoint(), regs[r]))
	}
	return out, regs
}

// sent sums one of rank 0's per-peer send counters.
func sent(reg *telemetry.Registry, counter string) float64 {
	var total int64
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, counter) {
			total += v
		}
	}
	return float64(total)
}

// exchangeProbe exchanges the given tensor set alone for maxSteps steps over
// instrumented views of comms, reports the horovod counters and the frames
// and bytes rank 0 put on the wire, and returns the step times.
func exchangeProbe(p *metrics, comms []*mpi.Comm, sizes []int, maxSteps int, rec *recorder) ([]float64, error) {
	const warm = 5
	icomms, regs := instrumented(comms)
	before := comms[0].FramePool().Stats()
	j := &exchangeJob{comms: icomms, engine: engineDefaults, sizes: sizes, warm: warm, maxSteps: maxSteps, rec: rec}
	log, err := j.run()
	if err != nil {
		return nil, err
	}
	if err := checkReduced(log.wrong); err != nil {
		return nil, err
	}
	after := comms[0].FramePool().Stats()
	steps, tensors := float64(len(log.step)), float64(len(sizes))
	st := log.stats
	p.pct("horovod.exchange_ms_p50", log.step, 50)
	p.set("horovod.us_per_tensor", median(log.step)*1e3/tensors)
	p.set("horovod.allocs_per_tensor", float64(log.mallocs)/steps/tensors/ranks)
	p.set("horovod.fused_allreduces_per_step", float64(st.EngineAllreduces)/steps)
	p.set("horovod.cycles_per_step", float64(st.Cycles)/steps)
	p.set("horovod.control_bytes_per_step", float64(st.ControlBytes)/steps)
	p.set("horovod.fused_bytes_per_step", float64(st.FusedBytes)/steps)
	p.set("horovod.cached_announce_frac", float64(st.CachedAnnouncements)/float64(st.CachedAnnouncements+st.NamedAnnouncements))
	// The wire counters run from the first warm-up step.
	p.set("mpi.frames_per_step", sent(regs[0], "mpi.frames_sent")/(steps+warm))
	p.set("mpi.wire_bytes_per_step", sent(regs[0], "mpi.bytes_sent")/(steps+warm))
	gets, misses := after.Gets-before.Gets, after.Misses-before.Misses
	p.set("mpi.framepool_hit_frac", float64(gets-misses)/float64(gets))
	return log.step, nil
}

// mpiProbe times the collectives under the engine on the given
// communicators: a ring allreduce of one buffer holding a step's gradient
// bytes, and a 64-byte ping-pong.
func mpiProbe(p *metrics, comms []*mpi.Comm, floats int, rec *recorder) (allreduceMs float64, err error) {
	bytes := 4 * floats
	iters := max(20, min(400, 64<<20/bytes))
	const pings = 500
	errs := make([]error, len(comms))
	var allocs uint64
	var pingUs []float64
	var wg sync.WaitGroup
	for r, cm := range comms {
		wg.Add(1)
		go func(r int, cm *mpi.Comm) {
			defer wg.Done()
			buf := make([]float32, floats)
			var m0 uint64
			for i := -3; i < iters; i++ { // three unrecorded warm-up rounds
				if i == 0 && r == 0 {
					m0 = mallocs()
				}
				var id int
				if r == 0 && i >= 0 {
					id = rec.begin("Comm.AllreduceRing", i, 0, 0)
				}
				if errs[r] = cm.AllreduceRing(buf, mpi.OpSum); errs[r] != nil {
					cm.Abort()
					return
				}
				rec.end(id)
			}
			if r == 0 {
				allocs = mallocs() - m0
			}
			msg := make([]byte, 64)
			for i := 0; i < pings; i++ {
				t0 := time.Now()
				if r == 0 {
					errs[r] = cm.Send(1, 7, msg)
					if errs[r] == nil {
						_, errs[r] = cm.Recv(1, 7)
					}
					pingUs = append(pingUs, float64(time.Since(t0))/1e3)
				} else {
					_, errs[r] = cm.Recv(0, 7)
					if errs[r] == nil {
						errs[r] = cm.Send(0, 7, msg)
					}
				}
				if errs[r] != nil {
					cm.Abort()
					return
				}
			}
		}(r, cm)
	}
	wg.Wait()
	for r, e := range errs {
		if e != nil {
			return 0, fmt.Errorf("mpi probe: rank %d: %w", r, e)
		}
	}
	ar := rec.ms("Comm.AllreduceRing")
	p.pct("mpi.allreduce_ms_p50", ar, 50)
	p.set("mpi.allreduce_MBps_per_rank", float64(bytes)/1e6/(median(ar)/1e3))
	p.set("mpi.allocs_per_allreduce", float64(allocs)/float64(iters)/float64(len(comms)))
	p.pct("mpi.pingpong_us_p50", pingUs, 50)
	return median(ar), nil
}

// trainProbes describes a training workload to the probes.
type trainProbes struct {
	newComms    func() ([]*mpi.Comm, error) // the workload's transport
	job         func(comms []*mpi.Comm) *trainJob
	steps       int  // per probe loop
	gemm        gemm // tensor.matmul_gflops shape
	conv        bool // tensor.conv2d_gflops applies
	superviseMs float64
}

// trainLayers fills the per-layer table of a training workload. primary is
// the untraced and traced halves of the workload itself; everything else is
// probed here.
func trainLayers(p *metrics, rec *recorder, plain, traced *stepLog, tp trainProbes) error {
	// train: the workload's own steps.
	p.pct("train.comm_wait_ms_p50", plain.wait, 50)
	p.set("train.comm_exposed_frac", sum(plain.wait)/sum(plain.step))
	p.pct("train.step_ms_p99", plain.step, 99)
	p.set("bench.trace_overhead_pct", pctWorse(float64(len(plain.step))/plain.elapsed.Seconds(), float64(len(traced.step))/traced.elapsed.Seconds()))

	// One rank, no engine: the single-worker baseline. Its spans go to a
	// recorder of their own, apart from the two-rank runs' spans of the same
	// names.
	single := tp.job(nil)
	single.maxSteps, single.rec = tp.steps, newRecorder()
	slog, _, err := single.run()
	if err != nil {
		return err
	}
	steps := float64(len(slog.step))
	p.pct("train.step_ms_single", slog.step, 50)
	p.set("train.allocs_per_step_single", float64(slog.mallocs)/steps)
	next := single.rec.ms("data.Next")
	p.setN("data.next_us", median(next)*1e3, len(next))
	singleRate := steps / slog.elapsed.Seconds()
	p.set("train.scaling_eff", float64(len(plain.step))/plain.elapsed.Seconds()/singleRate)

	// The same step taken apart: executor and optimizer called directly.
	gen, err := single.newGen(0)
	if err != nil {
		return err
	}
	model := single.newModel()
	prof, err := decomposedSteps(model, single.newOpt(), gen, tp.steps, rec)
	if err != nil {
		return err
	}
	var kernelMs, opCalls float64
	for _, e := range prof.Entries() {
		kernelMs += ms(e.Total())
		opCalls += float64(e.Calls)
	}
	kernelMs /= float64(tp.steps)
	fwd, bwd := rec.ms("Executor.Forward"), rec.ms("Executor.Backward")
	p.set("tensor.kernel_ms_per_step", kernelMs)
	p.set("graph.ops_per_step", opCalls/float64(tp.steps))
	p.pct("graph.fwd_ms", fwd, 50)
	p.pct("graph.bwd_ms", bwd, 50)
	p.pct("train.optimizer_ms", rec.ms("Optimizer.Step"), 50)
	// Kernel time is a mean over the probe's steps, so take the executor's
	// mean too: the difference is what the executor itself costs.
	dispatch := mean(fwd) + mean(bwd) - kernelMs
	self := median(slog.step) - median(fwd) - median(bwd)
	p.set("graph.dispatch_ms_per_step", dispatch)
	p.set("train.self_ms_per_step", self)

	p.set("tensor.matmul_gflops", matmulGFLOPs(tp.gemm))
	if tp.conv {
		p.set("tensor.conv2d_gflops", conv2dGFLOPs())
	}

	// The gradient set exchanged alone, and the collectives under it, on a
	// fresh instance of the workload's transport.
	start := time.Now()
	comms, err := tp.newComms()
	if err != nil {
		return err
	}
	defer closeComms(comms)
	p.set("mpi.setup_ms", ms(time.Since(start)))
	var sizes []int
	floats := 0
	for _, v := range model.G.Variables() {
		sizes = append(sizes, tensor.NumElems(v.Shape()))
		floats += tensor.NumElems(v.Shape())
	}
	exchange, err := exchangeProbe(p, comms, sizes, tp.steps, rec)
	if err != nil {
		return err
	}
	allreduce, err := mpiProbe(p, comms, floats, rec)
	if err != nil {
		return err
	}
	p.set("horovod.self_ms_per_step", median(exchange)-allreduce)
	p.set("train.comm_hidden_frac", 1-median(plain.wait)/median(exchange))

	budget(p, median(plain.step), kernelMs+dispatch+self+median(plain.wait)+tp.superviseMs)
	return nil
}

func inprocComms() ([]*mpi.Comm, error) {
	w, err := mpi.NewWorld(ranks)
	if err != nil {
		return nil, err
	}
	comms := make([]*mpi.Comm, ranks)
	for r := range comms {
		comms[r] = w.Comm(r)
	}
	return comms, nil
}

func traceTrainInproc(c config) (*result, error) {
	rec := newRecorder()
	plain, plainWall, err := runJob(c, c.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	traced, _, err := runJob(c, c.seconds/2, rec)
	if err != nil {
		return nil, err
	}
	p := newMetrics(perLayer)
	p.set("job.run_overhead_ms", ms(plainWall-plain.lastEnd.Sub(plain.firstStart)))

	// The same factories and engine settings in a benchmark-owned loop: what
	// the job and supervisor layers add between steps is the difference.
	spec := inprocSpec(c)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	newModel, newOpt, newGen := spec.Factories()
	owned := func(comms []*mpi.Comm) *trainJob {
		return &trainJob{
			comms:    comms,
			engine:   spec.EngineConfig(),
			newModel: newModel,
			newOpt:   func() train.Optimizer { return newOpt(ranks) },
			newGen:   func(rank int) (func() data.Batch, error) { return newGen(rank, ranks, 0) },
			warm:     10,
		}
	}
	comms, err := inprocComms()
	if err != nil {
		return nil, err
	}
	loop := owned(comms)
	loop.maxSteps, loop.rec = c.sz.ProbeSteps, rec
	olog, hashes, err := loop.run()
	closeComms(comms)
	if err != nil {
		return nil, err
	}
	supervise := median(plain.period) - median(olog.period)
	p.set("job.supervise_overhead_ms_per_step", supervise)

	err = trainLayers(p, rec, plain, traced, trainProbes{
		newComms: inprocComms, job: owned, steps: c.sz.ProbeSteps,
		gemm: gemm{64, 288, 16}, // TinyCNN conv3 per image: 64 filters x (32*3*3) x (4*4)
		conv: true, superviseMs: supervise,
	})
	if err != nil {
		return nil, err
	}
	ops := len(plain.step) + len(traced.step)
	res := newResult("train_dp2_inproc", ops, checkLoss(plain.warmLoss, plain.loss), checkLoss(traced.warmLoss, traced.loss), checkHashes(hashes))
	return finishTrace(c, res, p, rec)
}

func traceTrainWideFC(c config) (*result, error) {
	rec := newRecorder()
	plain, h1, err := runWideFC(c, c.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	traced, h2, err := runWideFC(c, c.seconds/2, rec)
	if err != nil {
		return nil, err
	}
	p := newMetrics(perLayer)
	err = trainLayers(p, rec, plain, traced, trainProbes{
		newComms: func() ([]*mpi.Comm, error) { return mpi.StartLocalTCPJob(ranks) },
		job:      func(comms []*mpi.Comm) *trainJob { return wideFCJob(c, comms) },
		steps:    c.sz.ProbeStepsFC,
		gemm:     gemm{batch, c.sz.HiddenWideFC, c.sz.HiddenWideFC},
	})
	if err != nil {
		return nil, err
	}
	ops := len(plain.step) + len(traced.step)
	res := newResult("train_dp2_tcp_widefc", ops, checkLoss(plain.warmLoss, plain.loss), checkLoss(traced.warmLoss, traced.loss), checkHashes(h1), checkHashes(h2))
	return finishTrace(c, res, p, rec)
}

func traceExchange(c config) (*result, error) {
	rec := newRecorder()
	p := newMetrics(perLayer)
	plain, err := runExchangeSmall(c, c.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	traced, err := runExchangeSmall(c, c.seconds/2, rec)
	if err != nil {
		return nil, err
	}
	rate := func(l *exchangeLog) float64 { return float64(len(l.step)) / l.elapsed.Seconds() }
	p.set("bench.trace_overhead_pct", pctWorse(rate(plain), rate(traced)))

	// The workload over instrumented endpoints, for the wire counters; then
	// with fresh names every step, the response-cache miss path.
	start := time.Now()
	j, err := exchangeSmall(c)
	if err != nil {
		return nil, err
	}
	p.set("mpi.setup_ms", ms(time.Since(start)))
	defer closeComms(j.comms)
	wrong := plain.wrong + traced.wrong
	exchange, err := exchangeProbe(p, j.comms, j.sizes, c.sz.ProbeStepsExc, nil)
	if err != nil {
		return nil, err
	}
	fresh := *j
	fresh.fresh, fresh.warm, fresh.maxSteps = true, 20, c.sz.ProbeStepsExc
	flog, err := fresh.run()
	if err != nil {
		return nil, err
	}
	p.pct("horovod.exchange_fresh_ms_p50", flog.step, 50)
	wrong += flog.wrong

	floats := 0
	for _, s := range j.sizes {
		floats += s
	}
	allreduce, err := mpiProbe(p, j.comms, floats, rec)
	if err != nil {
		return nil, err
	}
	self := median(exchange) - allreduce
	p.set("horovod.self_ms_per_step", self)
	budget(p, median(plain.step), self+allreduce)

	// The program's own tracer and registry attached to the engines, against
	// none: the minimum of five alternating pairs of segments.
	overhead, bad, err := tracerOverhead(j, c.sz.ProbeStepsExc/2)
	if err != nil {
		return nil, err
	}
	p.set("telemetry.tracer_overhead_pct", overhead)
	wrong += bad

	ops := len(plain.step) + len(traced.step)
	res := newResult("exchange_small_inproc", ops, checkReduced(wrong))
	return finishTrace(c, res, p, rec)
}

// tracerOverhead runs j in short segments, alternately without and with a
// telemetry.Tracer and Registry in the engines' configuration.
func tracerOverhead(j *exchangeJob, steps int) (pct float64, wrong int, err error) {
	seg := *j
	seg.warm, seg.maxSteps = 20, steps
	pct = 1e9
	for i := 0; i < 5; i++ {
		var rates [2]float64
		for on := 0; on < 2; on++ {
			seg.engine = engineDefaults
			if on == 1 {
				seg.engine = func(rank int) horovod.Config {
					cfg := engineDefaults(rank)
					cfg.Telemetry, cfg.Tracer = telemetry.New(), telemetry.NewTracer()
					return cfg
				}
			}
			log, err := seg.run()
			if err != nil {
				return 0, 0, err
			}
			wrong += log.wrong
			rates[on] = float64(len(log.step)) / log.elapsed.Seconds()
		}
		pct = min(pct, pctWorse(rates[0], rates[1]))
	}
	return pct, wrong, nil
}
