package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dnnperf/internal/horovod"
	"dnnperf/internal/mpi"
	"dnnperf/internal/train"
)

// exchangeJob is a gradient exchange with no compute: every rank submits
// the same named tensors to its Horovod engine, last tensor first as a
// backward pass would, and a step ends when every callback has fired.
// exchange_small_inproc is this loop; the traced runs of the training
// workloads use it to time their own gradient sets alone.
type exchangeJob struct {
	comms    []*mpi.Comm
	engine   func(rank int) horovod.Config
	sizes    []int // floats per tensor
	fresh    bool  // new names every step: the response-cache miss path
	warm     int
	seconds  float64
	maxSteps int
	rec      *recorder
}

// exchangeLog is rank 0's record of one exchange run. A step runs from the
// submit of the first tensor to the last callback.
type exchangeLog struct {
	stepLog
	stats horovod.Stats // over the measured phase
	wrong int           // reduced elements, on any rank, that were not the exact mean
}

const tensorSpanSteps = 100

func engineDefaults(int) horovod.Config {
	return horovod.Config{CycleTime: 300 * time.Microsecond, Average: true}
}

func (j *exchangeJob) run() (*exchangeLog, error) {
	n := len(j.comms)
	obs := newObserver(j.warm, j.seconds, j.maxSteps)
	var stats horovod.Stats
	var wrong atomic.Int64
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = j.rank(r, obs, &stats, &wrong)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	obs.close()
	return &exchangeLog{stepLog: *obs.log, stats: stats, wrong: int(wrong.Load())}, nil
}

func (j *exchangeJob) rank(r int, obs *observer, stats *horovod.Stats, wrong *atomic.Int64) (err error) {
	eng := horovod.NewEngine(j.comms[r], j.engine(r))
	defer func() {
		if serr := eng.Shutdown(); err == nil {
			err = serr
		}
	}()
	total := 0
	for _, s := range j.sizes {
		total += s
	}
	slab := make([]float32, total)
	tensors := make([][]float32, len(j.sizes))
	names := make([]string, len(j.sizes))
	spans := make([]int, len(j.sizes))
	done := make([]func(error), len(j.sizes))
	var pending sync.WaitGroup
	var failed atomic.Pointer[error]
	off := 0
	for i, s := range j.sizes {
		tensors[i] = slab[off : off+s]
		off += s
		names[i] = "grad/" + strconv.Itoa(i)
		done[i] = func(err error) {
			j.rec.end(spans[i])
			if err != nil {
				failed.CompareAndSwap(nil, &err)
			}
			pending.Done()
		}
	}
	// Every rank fills its tensors with rank+1, so every reduced element
	// must be exactly the mean of 1..n.
	fill, want := float32(r+1), float32(len(j.comms)+1)/2

	var s0 horovod.Stats
	for step := int64(1); step <= obs.stopAt.Load(); step++ {
		for i := range slab {
			slab[i] = fill
		}
		// Rank 0's measured steps get a span each; the first tensorSpanSteps
		// of them also one per tensor, submit to callback. More would fill
		// the recorder with 512 spans a step and say nothing new.
		rec := j.rec
		if r != 0 || step <= int64(j.warm) {
			rec = nil
		}
		stepSpan := rec.begin("bench.exchange_step", int(step), 0, r)
		if step > int64(j.warm)+tensorSpanSteps {
			rec = nil
		}
		t0 := time.Now()
		pending.Add(len(tensors))
		for i := len(tensors) - 1; i >= 0; i-- {
			name := names[i]
			if j.fresh {
				name = "s" + strconv.FormatInt(step, 10) + "/" + name
			}
			spans[i] = rec.begin("Engine.AllreduceAsync", int(step), stepSpan, r)
			if err := eng.AllreduceAsync(name, tensors[i], done[i]); err != nil {
				j.comms[r].Abort() // unblock the peers
				return err
			}
		}
		pending.Wait()
		j.rec.end(stepSpan)
		if r == 0 {
			obs.step(step, train.StepStats{Duration: time.Since(t0)})
			if step == int64(j.warm) {
				s0 = eng.Stats()
			}
		}
		if e := failed.Load(); e != nil {
			return *e
		}
		bad := 0
		for _, v := range slab {
			if v != want {
				bad++
			}
		}
		wrong.Add(int64(bad))
	}
	if r == 0 {
		*stats = statsSince(eng.Stats(), s0)
	}
	return nil
}

func statsSince(now, then horovod.Stats) horovod.Stats {
	now.FrameworkRequests -= then.FrameworkRequests
	now.EngineAllreduces -= then.EngineAllreduces
	now.Cycles -= then.Cycles
	now.FusedBytes -= then.FusedBytes
	now.ControlBytes -= then.ControlBytes
	now.CachedAnnouncements -= then.CachedAnnouncements
	now.NamedAnnouncements -= then.NamedAnnouncements
	return now
}

// checkReduced is the exchange output check.
func checkReduced(wrong int) error {
	if wrong != 0 {
		return fmt.Errorf("exchange check: %d reduced elements were not the exact mean of the ranks' inputs", wrong)
	}
	return nil
}

// smallTensorSizes are the BN- and bias-class tensor sizes of a
// ResNet-152-sized graph: equal counts of 64..2048 floats, in an order the
// seed draws. Equal counts keep the bytes per step the same for every seed,
// so the byte counters repeat exactly and seeds differ only in which sizes
// meet in a fusion buffer.
func smallTensorSizes(seed int64, n int) []int {
	classes := []int{64, 128, 256, 512, 1024, 2048}
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = classes[i%len(classes)]
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(a, b int) { sizes[a], sizes[b] = sizes[b], sizes[a] })
	return sizes
}

func exchangeSmall(c config) (*exchangeJob, error) {
	comms, err := inprocComms()
	if err != nil {
		return nil, err
	}
	return &exchangeJob{
		comms:  comms,
		engine: engineDefaults,
		sizes:  smallTensorSizes(c.seed, c.sz.TensorsPerExc),
		warm:   c.sz.WarmExchange,
	}, nil
}

// runExchangeSmall builds a world, exchanges for the given time and tears
// the world down. The returned set-up time counts from before NewWorld.
func runExchangeSmall(c config, seconds float64, rec *recorder) (*exchangeLog, error) {
	start := time.Now()
	j, err := exchangeSmall(c)
	if err != nil {
		return nil, err
	}
	defer closeComms(j.comms)
	built := time.Since(start)
	j.seconds, j.rec = seconds, rec
	log, err := j.run()
	if err != nil {
		return nil, err
	}
	log.setup += built
	return log, nil
}

func runExchange(c config) (*result, error) {
	if c.trace {
		return traceExchange(c)
	}
	var wrong int
	m, _, err := measureSteps(c, func(seconds float64) (*stepLog, error) {
		log, err := runExchangeSmall(c, seconds, nil)
		if err != nil {
			return nil, err
		}
		wrong += log.wrong
		return &log.stepLog, nil
	})
	if err != nil {
		return nil, err
	}
	res := newResult("exchange_small_inproc", m.ops, checkReduced(wrong))
	res.Metrics, err = m.metrics(c)
	return res, err
}
