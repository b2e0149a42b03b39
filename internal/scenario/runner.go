package scenario

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dnnperf/internal/hw"
	"dnnperf/internal/job"
	"dnnperf/internal/models"
	"dnnperf/internal/mpi"
	"dnnperf/internal/telemetry"
	"dnnperf/internal/telemetry/detect"
	"dnnperf/internal/train"
	"dnnperf/internal/trainsim"
)

// Options configures one scenario run.
type Options struct {
	// OutDir, when non-empty, receives on-disk artifacts: the report
	// document and the elastic job's checkpoints. Empty keeps checkpoints
	// in a temp dir that is removed after the run.
	OutDir string
	// Log receives human progress lines; nil discards them.
	Log io.Writer
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// outcome carries everything the run observed to the assertion evaluator
// and the report builder.
type outcome struct {
	spec    *Spec
	elapsed time.Duration

	// train jobs
	supervised map[int]*train.SupervisorResult // surviving supervised ranks
	errs       map[int]error                   // per-rank terminal errors
	casualties map[int]string                  // rank -> "killed" | "isolated"
	recoveries []train.RecoveryEvent           // lowest surviving rank's view
	throughput float64
	flagged    []int // detector's straggler list

	regrows []train.RegrowEvent // lowest surviving rank's view

	// collectives jobs
	typedErrors int64
	stats       map[int]mpi.FaultStats
	roundsOK    int

	// trainsim jobs
	sim      *trainsim.Result
	straggle *trainsim.StragglerResult

	// sched jobs
	sched *job.SchedReport

	merged   *telemetry.MergedMetrics
	ckptDir  string
	newModel func() *models.Model

	eventLog []string
}

func (oc *outcome) log(format string, args ...any) {
	oc.eventLog = append(oc.eventLog, fmt.Sprintf(format, args...))
}

// Run executes a validated scenario and returns its report. An error
// means the run could not be staged (bad spec, transport bootstrap
// failure); a staged run that violates its assertions returns a report
// with Pass=false and a nil error.
func Run(spec *Spec, opts Options) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	opts.logf("scenario %s: seed=%d kind=%s transport=%s ranks=%d",
		spec.Name, spec.Seed, spec.Job.Kind, spec.Fleet.Transport, spec.Fleet.Ranks)

	var oc *outcome
	var err error
	switch spec.Job.Kind {
	case "train":
		oc, err = runTrain(spec, opts)
	case "collectives":
		oc, err = runCollectives(spec, opts)
	case "sched":
		oc, err = runSched(spec, opts)
	default:
		oc, err = runTrainsim(spec, opts)
	}
	if err != nil {
		return nil, err
	}
	oc.elapsed = time.Since(start)

	rep := &Report{
		Scenario:       spec.Name,
		Description:    spec.Description,
		Seed:           spec.Seed,
		Kind:           spec.Job.Kind,
		Pass:           true,
		EventLog:       oc.eventLog,
		ElapsedMS:      oc.elapsed.Milliseconds(),
		ThroughputImgS: oc.throughput,
		Metrics:        oc.merged,
		Sched:          oc.sched,
	}
	for _, ev := range oc.recoveries {
		rep.RecoveryLatenciesMS = append(rep.RecoveryLatenciesMS, ev.Latency.Milliseconds())
	}
	for _, a := range spec.Asserts {
		res := evalAssert(a, oc)
		rep.Asserts = append(rep.Asserts, res)
		rep.Pass = rep.Pass && res.Pass
		opts.logf("  assert %-18s %s  %s", a.Check, passWord(res.Pass), res.Detail)
	}
	if opts.OutDir != "" {
		rep.CkptDir = oc.ckptDir
		path := filepath.Join(opts.OutDir, "report-"+spec.Name+".json")
		if f, ferr := os.Create(path); ferr == nil {
			rep.ReportPath = path
			werr := rep.WriteJSON(f)
			if cerr := f.Close(); werr == nil && cerr == nil {
				opts.logf("  report: %s", path)
			}
		}
	} else if oc.ckptDir != "" {
		os.RemoveAll(oc.ckptDir)
		rep.CkptDir = ""
	}
	opts.logf("scenario %s: %s (%d ms)", spec.Name, passWord(rep.Pass), rep.ElapsedMS)
	return rep, nil
}

func passWord(ok bool) string {
	if ok {
		return "pass"
	}
	return "FAIL"
}

// applyEvent applies one timeline event on rank r's current transport.
// Partitions are symmetric: the target blocks all its sends, peers block
// sends toward it, so both directions of the cut are real. A set_faults
// template renders through the job schema, anchored to the job's seed so
// every random stream replays.
func applyEvent(js *job.Spec, fleet *job.Fleet, r int, ev *Event) {
	ft := fleet.Fault(r)
	switch ev.Action {
	case "partition":
		if r == ev.Rank {
			ft.PartitionAll()
		} else {
			ft.Partition(ev.Rank)
		}
	case "heal":
		if r == ev.Rank {
			ft.HealAll()
		} else {
			ft.Heal(ev.Rank)
			// The cut was symmetric, so the heal must be too — and the
			// target cannot restore its own side: a rank that lost
			// quorum parks, its step hook stops firing, and it would
			// stay self-isolated forever waiting for a heal only it
			// could apply.
			fleet.Fault(ev.Rank).Heal(r)
		}
	case "set_faults":
		tmpl := job.Spec{Seed: js.Seed, Faults: ev.Faults}
		ft.SetConfig(tmpl.FaultConfig())
	}
}

// trainControl is the shared state of a train-kind run: the fleet whose
// fault transports the timeline manipulates and whose Restart relaunches a
// killed rank, per-(event,rank) fire-once guards, and the straggler detector
// every rank feeds.
type trainControl struct {
	spec  *Spec
	js    *job.Spec
	fleet *job.Fleet
	det   *detect.Detector
	once  [][]sync.Once // once[eventIdx][rank]
	fired []atomic.Bool // event ever fired on any rank
}

func newTrainControl(spec *Spec, js *job.Spec, fleet *job.Fleet, det *detect.Detector) *trainControl {
	ctl := &trainControl{
		spec:  spec,
		js:    js,
		fleet: fleet,
		det:   det,
		once:  make([][]sync.Once, len(spec.Timeline)),
		fired: make([]atomic.Bool, len(spec.Timeline)),
	}
	for i := range ctl.once {
		ctl.once[i] = make([]sync.Once, spec.Fleet.Ranks)
	}
	return ctl
}

// fire applies timeline event i on rank r, once per (event, rank).
func (ctl *trainControl) fire(i, r int, ev *Event) {
	ctl.once[i][r].Do(func() {
		applyEvent(ctl.js, ctl.fleet, r, ev)
		ctl.fired[i].Store(true)
	})
}

// hook is rank r's OnStep observer: it fires step-scheduled events,
// injects the straggle slowdown, and feeds the detector the rank's
// per-step compute signal. Duration-CommWait is the honest per-rank
// latency: in lock-step data parallelism the wall step time equalizes
// across ranks (peers absorb a straggler's delay as allreduce wait), so
// only the compute component plus any injected stall distinguishes a
// slow rank.
func (ctl *trainControl) hook(r int) func(int64, train.StepStats) {
	return func(step int64, st train.StepStats) {
		var extra time.Duration
		for i := range ctl.spec.Timeline {
			ev := &ctl.spec.Timeline[i]
			if ev.Action == "kill_rank" || ev.AtStep <= 0 {
				continue
			}
			if ev.Action == "restart_rank" || ev.Action == "rejoin" {
				// >= not ==: after a recovery rollback the survivors replay
				// steps, and the trigger step may land mid-replay on a rank
				// that already passed it before the failure. The CAS keeps
				// the relaunch single-shot; the dead rank itself obviously
				// cannot fire its own restart.
				if r != ev.Rank && step >= ev.AtStep && ctl.fired[i].CompareAndSwap(false, true) {
					ctl.fleet.Restart(ev.Rank)
				}
				continue
			}
			if ev.Action == "straggle" {
				if ev.Rank == r && step >= ev.AtStep {
					ctl.fired[i].Store(true)
					d := time.Duration(float64(st.Duration-st.CommWait) * (ev.Factor - 1))
					if d > 0 {
						time.Sleep(d)
						extra += d
					}
				}
				continue
			}
			if step == ev.AtStep {
				ctl.fire(i, r, ev)
			}
		}
		compute := st.Duration - st.CommWait
		if compute < 0 {
			compute = 0
		}
		ctl.det.ObserveStep(r, compute+extra)
	}
}

// jobSpec renders the scenario's live job into the shared job.Spec schema
// — the single definition mpirun, dnnsched and the experiment runner
// execute — so every factory, engine and supervisor knob comes from one
// place. ckptDir is the resolved on-disk checkpoint directory ("" = none).
func jobSpec(spec *Spec, ckptDir string) (*job.Spec, error) {
	js := &job.Spec{
		Name:         spec.Name,
		PPN:          spec.Fleet.Ranks,
		Steps:        spec.Job.Steps,
		Batch:        spec.Job.Batch,
		CycleTime:    spec.Job.CycleTime,
		Seed:         spec.Seed,
		Elastic:      spec.Job.Elastic,
		CkptDir:      ckptDir,
		CkptEvery:    spec.Job.CkptEvery,
		RegrowWait:   spec.Job.RegrowWait,
		RecvTimeout:  spec.Fleet.RecvTimeout,
		Faults:       spec.Faults,
		AllreduceAlg: spec.Job.AllreduceAlg,
		SegmentBytes: spec.Job.SegmentBytes,
		// Scenario training predates LR scheduling: keep the constant-rate
		// optimizer so event logs replay.
		LRPolicy: "constant",
	}
	if err := js.Validate(); err != nil {
		return nil, err
	}
	return js, nil
}

func runTrain(spec *Spec, opts Options) (*outcome, error) {
	n := spec.Fleet.Ranks
	ckptDir := ""
	if spec.Job.CkptEvery > 0 {
		base := opts.OutDir
		if base == "" {
			tmp, terr := os.MkdirTemp("", "scenario-"+spec.Name+"-")
			if terr != nil {
				return nil, terr
			}
			base = tmp
		}
		ckptDir = filepath.Join(base, "ckpt-"+spec.Name)
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			return nil, err
		}
	}
	js, err := jobSpec(spec, ckptDir)
	if err != nil {
		return nil, err
	}
	fleet, err := job.NewFleet(js, spec.Fleet.Transport)
	if err != nil {
		return nil, err
	}
	regs := newRegistries(n)
	det := detect.New(detect.Config{}, regs[0], nil)
	ctl := newTrainControl(spec, js, fleet, det)
	newModel, _, _ := js.Factories()

	// Every rank runs the supervised loop. A kill_rank target's config
	// carries its death step, and it trains under a ring-only tracer feeding
	// a flight recorder: the kill leaves its final spans on disk (under
	// OutDir) instead of vanishing with the rank. A restart_rank target
	// comes back as a joiner once a survivor's step hook trips the trigger.
	kills := map[int]int64{}
	flight := map[int]*telemetry.FlightRecorder{}
	partTargets := map[int]bool{}
	for _, ev := range spec.Timeline {
		switch ev.Action {
		case "kill_rank":
			kills[ev.Rank] = ev.AtStep
			flight[ev.Rank] = telemetry.NewFlightRecorder(0)
		case "partition":
			partTargets[ev.Rank] = true
		}
	}

	// Wall-clock events fire fleet-wide from timers.
	var timers []*time.Timer
	for i := range spec.Timeline {
		ev := &spec.Timeline[i]
		if ev.At > 0 && ev.AtStep <= 0 && ev.Action != "kill_rank" && ev.Action != "straggle" {
			i, ev := i, ev
			timers = append(timers, time.AfterFunc(ev.At.D(), func() {
				for r := 0; r < n; r++ {
					ctl.fire(i, r, ev)
				}
			}))
		}
	}
	defer func() {
		for _, t := range timers {
			t.Stop()
		}
	}()

	res, errs := fleet.Run(kills, func(r int, cfg *train.SupervisorConfig) {
		cfg.Telemetry = regs[r]
		cfg.OnStep = ctl.hook(r)
		if fr := flight[r]; fr != nil && !cfg.Joiner {
			cfg.Tracer = telemetry.NewTracer()
			cfg.Tracer.SetPID(r)
			cfg.Tracer.SetFlightRecorder(fr, true)
			cfg.Engine.Tracer = cfg.Tracer
		}
	})
	for r, fr := range flight {
		if opts.OutDir != "" && fr.Len() > 0 {
			path := filepath.Join(opts.OutDir, fmt.Sprintf("flight-%s-rank%d.json", spec.Name, r))
			if fr.DumpToFile(path, r, "killed") == nil {
				opts.logf("  rank %d: flight recorder: %d span(s) -> %s", r, fr.Len(), path)
			}
		}
	}

	oc := &outcome{
		spec:       spec,
		supervised: map[int]*train.SupervisorResult{},
		errs:       map[int]error{},
		casualties: map[int]string{},
		ckptDir:    ckptDir,
		newModel:   newModel,
	}
	for r := 0; r < n; r++ {
		switch _, doomed := kills[r]; {
		case res.PerRank[r] != nil:
			// A survivor — for a killed rank, the readmitted incarnation,
			// which speaks for the rank from here on.
			oc.supervised[r] = res.PerRank[r]
		case doomed:
			if errs[r] != nil {
				opts.logf("  rank %d: %v", r, errs[r])
			}
			oc.casualties[r] = "killed"
		case errs[r] != nil && partTargets[r]:
			// A partitioned rank that could not rejoin is an expected
			// casualty, not a scenario failure.
			oc.casualties[r] = "isolated"
		default:
			oc.errs[r] = errs[r]
			opts.logf("  rank %d: %v", r, errs[r])
		}
	}
	// The lowest survivor speaks for the job — the rank whose view
	// fleet.Run already summarised in res.
	oc.throughput = res.ImagesPerSec
	for _, low := range res.PerRank {
		if low != nil {
			oc.recoveries, oc.regrows = low.Recoveries, low.Regrows
			break
		}
	}
	oc.flagged = det.Stragglers()
	oc.merged = mergeRanks(regs)

	buildTrainEventLog(oc, ctl)
	return oc, nil
}

// newRegistries allocates one telemetry registry per rank.
func newRegistries(n int) []*telemetry.Registry {
	regs := make([]*telemetry.Registry, n)
	for r := range regs {
		regs[r] = telemetry.New()
	}
	return regs
}

// mergeRanks snapshots every rank's registry into the merged metrics
// document the report carries.
func mergeRanks(regs []*telemetry.Registry) *telemetry.MergedMetrics {
	snaps := make([]telemetry.Snapshot, len(regs))
	for r, reg := range regs {
		snaps[r] = reg.Snapshot()
		snaps[r].Rank = r
	}
	m := telemetry.Merge(snaps)
	return &m
}

// buildTrainEventLog assembles the deterministic replay record: declared
// trigger points, the recovery trajectory, per-rank outcomes. No
// wall-clock values — those live in the report.
func buildTrainEventLog(oc *outcome, ctl *trainControl) {
	spec := oc.spec
	oc.log("scenario %s seed=%d", spec.Name, spec.Seed)
	oc.log("fleet ranks=%d transport=%s", spec.Fleet.Ranks, spec.Fleet.Transport)
	oc.log("job kind=train steps=%d batch=%d elastic=%t ckpt_every=%d",
		spec.Job.Steps, spec.Job.Batch, spec.Job.Elastic, spec.Job.CkptEvery)
	for i := range spec.Timeline {
		ev := &spec.Timeline[i]
		if ev.Action == "kill_rank" {
			oc.log("event at_step=%d kill_rank rank=%d", ev.AtStep, ev.Rank)
			continue
		}
		if !ctl.fired[i].Load() {
			continue
		}
		switch ev.Action {
		case "straggle":
			oc.log("event at_step=%d straggle rank=%d factor=%g", ev.AtStep, ev.Rank, ev.Factor)
		case "set_faults":
			oc.log("event %s set_faults drop=%g delay_prob=%g dup=%g",
				trigger(ev), ev.Faults.DropProb, ev.Faults.DelayProb, ev.Faults.DupProb)
		default:
			oc.log("event %s %s rank=%d", trigger(ev), ev.Action, ev.Rank)
		}
	}
	// Concurrent failures batch differently run to run — two ranks killed at
	// the same step may be absorbed in one recovery round or two, depending
	// on detection timing — so per-round lines would not replay. The
	// aggregate is timing-free and total: the sorted union of failed ranks,
	// the world trajectory endpoints, and the earliest rollback step. The
	// same argument covers regrow admissions.
	if len(oc.recoveries) > 0 {
		failed := map[int]bool{}
		resume := oc.recoveries[0].ResumeStep
		for _, rec := range oc.recoveries {
			for _, r := range rec.FailedRanks {
				failed[r] = true
			}
			if rec.ResumeStep < resume {
				resume = rec.ResumeStep
			}
		}
		oc.log("recovery failed=%v world=%d->%d resume_step=%d",
			sortedRanks(failed), oc.recoveries[0].OldSize,
			oc.recoveries[len(oc.recoveries)-1].NewSize, resume)
	}
	if len(oc.regrows) > 0 {
		joined := map[int]bool{}
		for _, rg := range oc.regrows {
			for _, r := range rg.Joined {
				joined[r] = true
			}
		}
		oc.log("regrow joined=%v world=%d->%d",
			sortedRanks(joined), oc.regrows[0].OldSize,
			oc.regrows[len(oc.regrows)-1].NewSize)
	}
	for r := 0; r < spec.Fleet.Ranks; r++ {
		if word, ok := oc.casualties[r]; ok {
			oc.log("rank %d outcome=%s", r, word)
			continue
		}
		if res, ok := oc.supervised[r]; ok {
			if res.Parked {
				oc.log("rank %d outcome=%s final_step=%d parked_step=%d",
					r, res.Outcome, res.FinalStep, res.ParkedStep)
				continue
			}
			oc.log("rank %d outcome=%s final_step=%d", r, res.Outcome, res.FinalStep)
			continue
		}
		oc.log("rank %d outcome=failed", r)
	}
	if hasAction(spec, "straggle") {
		fl := append([]int(nil), oc.flagged...)
		sort.Ints(fl)
		oc.log("detect flagged=%v", fl)
	}
}

// sortedRanks renders a rank set as a sorted slice for stable logging.
func sortedRanks(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// trigger renders an event's declared firing point.
func trigger(ev *Event) string {
	if ev.AtStep > 0 {
		return fmt.Sprintf("at_step=%d", ev.AtStep)
	}
	return fmt.Sprintf("at=%s", ev.At)
}

func hasAction(spec *Spec, action string) bool {
	for _, ev := range spec.Timeline {
		if ev.Action == action {
			return true
		}
	}
	return false
}

func runCollectives(spec *Spec, opts Options) (*outcome, error) {
	n := spec.Fleet.Ranks
	js, err := jobSpec(spec, "")
	if err != nil {
		return nil, err
	}
	fleet, err := job.NewFleet(js, spec.Fleet.Transport)
	if err != nil {
		return nil, err
	}
	regs := newRegistries(n)
	for r, reg := range regs {
		fleet.Comm(r).SetTelemetry(reg)
	}
	oc := &outcome{spec: spec, stats: map[int]mpi.FaultStats{}}
	oc.log("scenario %s seed=%d", spec.Name, spec.Seed)
	oc.log("fleet ranks=%d transport=%s", n, spec.Fleet.Transport)
	oc.log("job kind=collectives rounds=%d vec_elems=%d alg=%s",
		spec.Job.Rounds, spec.Job.VecElems, orAuto(spec.Job.AllreduceAlg))

	want := float32(n * (n - 1) / 2)
	for round := int64(1); round <= int64(spec.Job.Rounds); round++ {
		// The control loop is single-threaded, so round-scheduled events
		// apply to every transport before the round's first send —
		// identical positions in each rank's send sequence on every run.
		for i := range spec.Timeline {
			ev := &spec.Timeline[i]
			if ev.AtStep != round {
				continue
			}
			for r := 0; r < n; r++ {
				applyEvent(js, fleet, r, ev)
			}
			switch ev.Action {
			case "set_faults":
				oc.log("event at_round=%d set_faults drop=%g delay_prob=%g dup=%g",
					round, ev.Faults.DropProb, ev.Faults.DelayProb, ev.Faults.DupProb)
			default:
				oc.log("event at_round=%d %s rank=%d", round, ev.Action, ev.Rank)
			}
		}
		errsR := make([]error, n)
		bufs := make([][]float32, n)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				buf := make([]float32, spec.Job.VecElems)
				for i := range buf {
					buf[i] = float32(r)
				}
				bufs[r] = buf
				errsR[r] = fleet.Comm(r).Allreduce(buf, mpi.OpSum)
			}(r)
		}
		wg.Wait()
		typed, failed, wrong := 0, 0, 0
		for r := 0; r < n; r++ {
			if errsR[r] != nil {
				failed++
				if _, ok := mpi.AsPeerError(errsR[r]); ok {
					typed++
				}
			} else if bufs[r][0] != want {
				wrong++
			}
		}
		oc.typedErrors += int64(typed)
		if failed == 0 && wrong == 0 {
			oc.roundsOK++
			oc.log("round %d ok", round)
			continue
		}
		// A failed collective poisons the tag space (stray frames); stop
		// the soak here, deterministically.
		oc.log("round %d failed errors=%d typed=%d wrong_sums=%d", round, failed, typed, wrong)
		break
	}
	// Every Allreduce has returned and the ring sender drains before
	// returning, so the counters are final — and, because each rank's
	// fault stream is seeded and drawn in send order, identical on every
	// same-seed run.
	for r := 0; r < n; r++ {
		st := fleet.Fault(r).Stats()
		oc.stats[r] = st
		oc.log("rank %d faults sent=%d dropped=%d delayed=%d duplicated=%d blocked=%d",
			r, st.Sent, st.Dropped, st.Delayed, st.Duplicated, st.Blocked)
	}
	oc.merged = mergeRanks(regs)
	for r := 0; r < n; r++ {
		fleet.Comm(r).Close()
	}
	return oc, nil
}

func orAuto(s string) string {
	if s == "" {
		return "auto"
	}
	return s
}

func runTrainsim(spec *Spec, opts Options) (*outcome, error) {
	cpu, err := hw.ByLabel(spec.Job.CPU)
	if err != nil {
		return nil, err
	}
	// The base point runs through the simulated job backend — the same
	// estimator dnnsched schedules against — so a scenario's simulated
	// throughput and a sched run's completion times come from one model.
	js := &job.Spec{
		Name:      spec.Name,
		Model:     spec.Job.Model,
		Framework: spec.Job.Framework,
		Platform:  spec.Job.CPU,
		Nodes:     spec.Fleet.Nodes,
		PPN:       spec.Fleet.PPN,
		Batch:     spec.Job.BatchPerProc,
		Steps:     spec.Job.Steps,
		Seed:      spec.Seed,
	}
	if err := js.Validate(); err != nil {
		return nil, err
	}
	res, err := job.NewSimBackend().Run(&job.RunContext{Spec: *js})
	if err != nil {
		return nil, err
	}
	base := *res.Sim
	cfg := trainsim.Config{
		Model:        spec.Job.Model,
		Framework:    spec.Job.Framework,
		CPU:          cpu,
		Nodes:        spec.Fleet.Nodes,
		PPN:          spec.Fleet.PPN,
		BatchPerProc: spec.Job.BatchPerProc,
		Seed:         spec.Seed,
	}
	oc := &outcome{spec: spec, sim: &base, throughput: base.ImagesPerSec}
	oc.log("scenario %s seed=%d", spec.Name, spec.Seed)
	oc.log("fleet ranks=%d transport=trainsim nodes=%d ppn=%d",
		spec.Fleet.Ranks, spec.Fleet.Nodes, spec.Fleet.PPN)
	oc.log("job kind=trainsim model=%s framework=%s cpu=%s batch=%d",
		spec.Job.Model, spec.Job.Framework, spec.Job.CPU, spec.Job.BatchPerProc)
	// The simulator is pure math on the seed, so its floats replay
	// bit-for-bit and may appear in the deterministic log.
	oc.log("sim images_per_sec=%.2f iter_ms=%.3f global_batch=%d",
		base.ImagesPerSec, base.IterTimeSec*1e3, base.GlobalBatch)

	for i := range spec.Timeline {
		ev := &spec.Timeline[i]
		if ev.Action != "straggle" {
			continue
		}
		reg := telemetry.New()
		sres, serr := trainsim.SimulateStraggler(trainsim.StragglerConfig{
			Sim:        cfg,
			Steps:      spec.Job.Steps,
			SlowRank:   ev.Rank,
			SlowFactor: ev.Factor,
			Telemetry:  reg,
		})
		if serr != nil {
			return nil, serr
		}
		oc.straggle = &sres
		oc.flagged = sres.Stragglers
		s := reg.Snapshot()
		m := telemetry.Merge([]telemetry.Snapshot{s})
		oc.merged = &m
		oc.log("event at_step=%d straggle rank=%d factor=%g", ev.AtStep, ev.Rank, ev.Factor)
		fl := append([]int(nil), sres.Stragglers...)
		sort.Ints(fl)
		oc.log("detect flagged=%v flagged_at_step=%d max_skew=%.3f",
			fl, sres.FlaggedAtStep, sres.MaxSkew)
		break // one straggler injection per scenario
	}
	return oc, nil
}

// runSched pushes a seeded synthetic multi-tenant workload through the
// dnnsched gang scheduler on the discrete-event clock. The run is a pure
// function of the scenario seed — job arrivals, shapes, priorities, and
// every placement/preemption decision — so the scheduler's own event log
// (virtual timestamps included) goes into the replay record verbatim.
func runSched(spec *Spec, opts Options) (*outcome, error) {
	sc := spec.Sched
	w := &job.Workload{
		Name: spec.Name,
		Seed: spec.Seed,
		Cluster: job.ClusterSpec{
			Platform:     sc.Platform,
			Nodes:        sc.Nodes,
			SlotsPerNode: sc.SlotsPerNode,
		},
		NoPreempt: sc.NoPreempt,
		Synth:     &job.SynthSpec{Jobs: sc.Jobs, Tenants: sc.Tenants},
	}
	reg := telemetry.New()
	rep, err := job.RunSim(w, job.NewSimBackend(), reg)
	if err != nil {
		return nil, err
	}
	oc := &outcome{spec: spec, sched: rep}
	oc.log("scenario %s seed=%d", spec.Name, spec.Seed)
	oc.log("cluster platform=%s nodes=%d slots_per_node=%d",
		sc.Platform, sc.Nodes, sc.SlotsPerNode)
	oc.log("job kind=sched jobs=%d tenants=%d no_preempt=%t",
		sc.Jobs, sc.Tenants, sc.NoPreempt)
	oc.eventLog = append(oc.eventLog, rep.EventLog...)
	oc.log("sched done=%d evicted=%d failed=%d preemptions=%d deadlocks=%d utilization=%.4f",
		rep.Done, rep.Evicted, rep.Failed, rep.Preemptions, rep.Deadlocks, rep.Utilization)
	for _, t := range rep.Tenants {
		oc.log("tenant %s jobs=%d done=%d evicted=%d preemptions=%d wait_mean=%s jct_mean=%s",
			t.Tenant, t.Jobs, t.Done, t.Evicted, t.Preemptions,
			time.Duration(t.WaitMeanNS), time.Duration(t.JCTMeanNS))
	}
	opts.logf("  sched: %d jobs, %d done, %d preemptions, utilization %.1f%%",
		rep.Jobs, rep.Done, rep.Preemptions, rep.Utilization*100)
	s := reg.Snapshot()
	m := telemetry.Merge([]telemetry.Snapshot{s})
	oc.merged = &m
	return oc, nil
}
