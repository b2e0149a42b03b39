// Command mpirun launches one job spec as an n-rank distributed training job
// over the TCP transport, in the style of `mpirun -np N`: it re-executes
// itself once per rank as worker processes, each of which joins the job,
// trains the demo model data-parallel through the Horovod engine, and
// reports aggregate throughput and the engine's profiling counters.
//
// The job — gang shape (nodes x ppn), step budget, batch, cycle time, recv
// deadline, elastic/checkpoint settings, fault injection, the crash demo —
// comes from -job spec.yaml and nowhere else: an internal/job Spec, the
// exact schema cmd/dnnsched schedules, so a spec debugged standalone under
// mpirun means the same job when submitted to the control plane.
// examples/jobs/ holds ready-made specs. The remaining flags configure only
// the launcher's observability: telemetry export, the live endpoint,
// profiles and flight-recorder dumps.
//
// Every worker runs train.Supervise on the config its spec renders — one
// rank loop whatever the spec says. A faults block wraps the worker's
// endpoint in a seeded mpi.FaultTransport (drop/delay/duplicate), and
// die_rank/die_step make one rank abort its transport after that step.
// What the survivors do then is the spec's elastic setting, which is data
// (a recovery budget), not a code path. Rigid survivors resolve to typed
// mpi.PeerError values within the recv deadline instead of hanging, and
// exit 1. With elastic: true the leader checkpoints every ckpt_every steps
// into ckpt_dir (default: a temp dir the launcher creates), and the
// survivors agree on the shrunk world, roll back to the last checkpoint,
// and finish the full step budget without the dead rank.
//
// With regrow: true (requires elastic) the launcher relaunches the killed
// rank's process once it exits: the fresh process rejoins through rank 0's
// retained listener, the leader admits it at a step boundary, and the
// world grows back to full size — survivors linger up to regrow_wait after
// their last step so a slow joiner still lands.
//
// Worker exit codes distinguish the outcomes:
//
//	0 — clean run (full world, no recoveries)
//	1 — unrecoverable failure
//	2 — this rank was killed by die_rank (the injected death, expected)
//	3 — run completed after recovering from rank failure
//
// Usage:
//
//	mpirun -job examples/jobs/dp4.yaml
//	       [-metrics m.json] [-trace t.json] [-timeline]
//	       [-listen 127.0.0.1:9090] [-publish_every 250ms] [-serve_linger 10s]
//	       [-profile cpu|heap] [-profile_dir DIR] [-flight_dir DIR]
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"dnnperf/internal/job"
	"dnnperf/internal/mpi"
	"dnnperf/internal/telemetry"
	"dnnperf/internal/telemetry/detect"
	"dnnperf/internal/telemetry/serve"
	"dnnperf/internal/train"
)

// Process exit codes (also read by the launcher to classify the job).
const (
	exitClean         = 0
	exitFailure       = 1
	exitInjectedDeath = 2
	exitRecovered     = 3
)

func main() {
	var (
		jobFile = flag.String("job", "", "job spec YAML/JSON (internal/job schema, same as dnnsched workload entries); required")

		metricsPath = flag.String("metrics", "", "write merged per-rank metrics JSON here (every rank, gathered to rank 0, when the run ends clean; after a recovery, the final leader's local metrics)")
		tracePath   = flag.String("trace", "", "write a Chrome trace-event JSON timeline here (all ranks merged, pid = rank)")

		profileMode = flag.String("profile", "", "capture a per-rank Go profile (cpu or heap); gathered to rank 0 under -profile_dir")
		profileDir  = flag.String("profile_dir", "profiles", "directory for -profile output files")
		flightDir   = flag.String("flight_dir", "", "directory for flight-recorder dumps on abnormal exit (default: alongside -trace or -metrics)")

		listen       = flag.String("listen", "", "rank 0 serves live telemetry over HTTP on this address: /metrics (Prometheus), /metrics.json, /trace, /healthz, /debug/flightrecorder, /debug/pprof/")
		publishEvery = flag.Duration("publish_every", telemetry.DefaultPublishInterval, "per-rank live telemetry push period (with -listen)")
		timeline     = flag.Bool("timeline", false, "emit the Horovod timeline (per-tensor lifecycle lanes) into the Chrome trace; implies tracing even without -trace")
		serveLinger  = flag.Duration("serve_linger", 0, "keep rank 0's live endpoint up this long after its run finishes (with -listen)")
	)
	flag.Parse()

	// Launcher and workers run this same code on the same argv, so the spec
	// resolves identically in every process — and everything below is
	// checked by the launcher first, before any worker exists to repeat the
	// complaint.
	if *jobFile == "" {
		fmt.Fprintln(os.Stderr, "mpirun: -job spec.yaml is required (see examples/jobs/)")
		os.Exit(exitFailure)
	}
	spec, err := job.LoadSpec(*jobFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpirun:", err)
		os.Exit(exitFailure)
	}
	if *profileMode != "" && *profileMode != "cpu" && *profileMode != "heap" {
		fmt.Fprintf(os.Stderr, "mpirun: -profile must be cpu or heap, got %q\n", *profileMode)
		os.Exit(exitFailure)
	}

	if rankStr := os.Getenv("DNNPERF_RANK"); rankStr != "" {
		if dir := os.Getenv("DNNPERF_CKPT_DIR"); dir != "" && spec.CkptDir == "" {
			spec.CkptDir = dir
		}
		cfg := workerConfig{
			spec:    spec,
			joiner:  os.Getenv("DNNPERF_JOINER") == "1",
			metrics: *metricsPath, trace: *tracePath,
			listen: *listen, publishEvery: *publishEvery,
			timeline: *timeline, linger: *serveLinger,
			profile: *profileMode, profileDir: *profileDir,
			flightDir: *flightDir,
		}
		os.Exit(worker(rankStr, cfg))
	}
	code, err := launch(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpirun:", err)
	}
	os.Exit(code)
}

// launch spawns the gang as ranked worker processes and classifies the job
// from their exit codes: any unrecoverable failure makes the job fail; an
// injected death plus recovered survivors is a recovered job. With regrow,
// the injected death additionally triggers a relaunch of the dead rank's
// process as a joiner, whose exit joins the classification.
func launch(spec *job.Spec) (int, error) {
	np := spec.Ranks()
	// Reserve a loopback port for the rank-0 rendezvous. The listener is
	// closed only after every worker has been handed the address; rank 0
	// re-binds it almost immediately, and its rendezvous retry loop absorbs
	// the remaining window (workers redial until RendezvousTimeout).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return exitFailure, err
	}
	root := ln.Addr().String()

	env := os.Environ()
	if spec.Elastic && spec.CkptDir == "" {
		dir, err := os.MkdirTemp("", "dnnperf-ckpt-*")
		if err != nil {
			ln.Close()
			return exitFailure, err
		}
		defer os.RemoveAll(dir)
		env = append(env, "DNNPERF_CKPT_DIR="+dir)
	}

	self, err := os.Executable()
	if err != nil {
		ln.Close()
		return exitFailure, err
	}
	spawn := func(r int, joiner bool) (*exec.Cmd, error) {
		cmd := exec.Command(self, os.Args[1:]...)
		cmd.Env = append(append([]string(nil), env...),
			"DNNPERF_RANK="+strconv.Itoa(r),
			"DNNPERF_ROOT="+root,
		)
		if joiner {
			cmd.Env = append(cmd.Env, "DNNPERF_JOINER=1")
		}
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start rank %d: %w", r, err)
		}
		return cmd, nil
	}
	type procExit struct {
		rank, code int
		err        error
	}
	exits := make(chan procExit, np+1)
	reap := func(r int, cmd *exec.Cmd) {
		go func() {
			err := cmd.Wait()
			exits <- procExit{r, cmd.ProcessState.ExitCode(), err}
		}()
	}
	for r := 0; r < np; r++ {
		cmd, err := spawn(r, false)
		if err != nil {
			ln.Close()
			return exitFailure, err
		}
		reap(r, cmd)
	}
	ln.Close()

	// Workers exit in failure order, not rank order, so reap them as they
	// land: the injected death arrives while the survivors are still
	// training, which is exactly when the joiner relaunch must happen.
	died, recovered, failed := 0, 0, 0
	var firstErr error
	for expected := np; expected > 0; expected-- {
		pe := <-exits
		switch pe.code {
		case exitClean:
		case exitInjectedDeath:
			died++
			// Only the die_rank's first incarnation exits 2 (its joiner ignores
			// the death step). The leader must survive for regrow to be possible.
			if spec.Regrow && pe.rank >= 1 {
				cmd, err := spawn(pe.rank, true)
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					break
				}
				fmt.Fprintf(os.Stderr, "mpirun: relaunching rank %d as a joiner\n", pe.rank)
				reap(pe.rank, cmd)
				expected++
			}
		case exitRecovered:
			recovered++
		default:
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("rank %d: %w", pe.rank, pe.err)
			}
		}
	}
	switch {
	case failed > 0:
		return exitFailure, firstErr
	case recovered > 0:
		fmt.Printf("mpirun: job recovered: %d rank(s) died, %d member(s) completed\n", died, recovered)
		return exitRecovered, nil
	case died > 0:
		// The victim was the whole job (a one-rank spec): nobody was left to
		// fail or recover.
		return exitInjectedDeath, nil
	default:
		return exitClean, nil
	}
}

// workerConfig is one worker process's resolved configuration: the job spec
// plus the launcher-side observability wiring the spec schema doesn't own.
type workerConfig struct {
	spec    *job.Spec
	joiner  bool   // this process is a relaunched rank rejoining the job
	metrics string // merged metrics JSON output path ("" = off)
	trace   string // Chrome trace output path ("" = off)

	listen       string        // rank-0 live HTTP address ("" = off)
	publishEvery time.Duration // live push period
	timeline     bool          // Horovod per-tensor timeline lanes
	linger       time.Duration // keep the live endpoint up after the run

	profile    string // per-rank Go profile mode: "cpu", "heap" or ""
	profileDir string // where gathered profiles land
	flightDir  string // flight-recorder dump directory ("" = derive)
}

// worker is one rank of the job; the return value is the process exit code.
func worker(rankStr string, cfg workerConfig) int {
	code, err := runWorker(rankStr, cfg)
	if err != nil {
		if pe, ok := mpi.AsPeerError(err); ok {
			fmt.Fprintf(os.Stderr, "mpirun worker %s: peer failure (rank %d, op %s): %v\n", rankStr, pe.Rank, pe.Op, err)
		} else {
			fmt.Fprintf(os.Stderr, "mpirun worker %s: %v\n", rankStr, err)
		}
	}
	return code
}

func runWorker(rankStr string, cfg workerConfig) (int, error) {
	rank, err := strconv.Atoi(rankStr)
	if err != nil {
		return exitFailure, err
	}
	root := os.Getenv("DNNPERF_ROOT")
	spec := cfg.spec

	// One registry and tracer span every layer of this rank: the transport
	// (via Instrument), the communicator's algorithm counters, the Horovod
	// engine, and the training loop. The tracer is always on: with -trace or
	// -timeline it keeps the full timeline; otherwise it runs in ring-only
	// mode, feeding nothing but the flight recorder — a bounded in-memory
	// ring of the last spans, flushed to disk if this rank dies.
	var reg *telemetry.Registry
	if cfg.metrics != "" || cfg.listen != "" {
		reg = telemetry.New()
	}
	tracer := telemetry.NewTracer()
	tracer.SetPID(rank)
	tracer.SetFlightRecorder(telemetry.NewFlightRecorder(0), cfg.trace == "" && !cfg.timeline)

	// Abnormal-exit flight-recorder flushes: a panic or a termination signal
	// leaves the last spans on disk before the process goes away.
	defer func() {
		if r := recover(); r != nil {
			dumpFlight(rank, tracer, cfg, "panic")
			panic(r)
		}
	}()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		dumpFlight(rank, tracer, cfg, s.String())
		os.Exit(exitFailure)
	}()
	defer signal.Stop(sigc)

	var prof *profiler
	if cfg.profile != "" {
		prof, err = startProfiler(cfg.profile)
		if err != nil {
			return exitFailure, err
		}
	}
	// Fallback persistence for every path that skips the clean gather.
	defer prof.finishLocal(cfg.profileDir, rank)

	// A relaunched rank has no seat in the rendezvous; it binds a fresh
	// listener and establishes the leader link through rank 0's retained
	// one (rank 0 adopted the rendezvous address as its own), then runs
	// the admission loop inside the supervisor.
	dial := mpi.DialTCPOpts
	if cfg.joiner {
		dial = mpi.RejoinTCP
	}
	opts := spec.TCPOptions()
	opts.Telemetry = reg
	raw, err := dial(rank, spec.Ranks(), root, "127.0.0.1:0", opts)
	if err != nil {
		return exitFailure, err
	}
	comm, ft, err := spec.WrapComm(raw, spec.FaultConfig(), reg)
	if err != nil {
		return exitFailure, err
	}
	defer comm.Close()

	// The live observability plane: every rank pushes periodic telemetry
	// bundles toward original rank 0, which serves them over HTTP. Publishing
	// rides the parent communicator, so it survives elastic shrinks (the
	// shrunk communicator reuses the parent transport and rank numbering).
	live, err := startLive(comm, rank, cfg, reg, tracer)
	if err != nil {
		return exitFailure, err
	}
	defer live.shutdown()

	// One path for every spec: the supervisor is the rank loop, and elastic,
	// die_rank and the recovery budget are data in the config it renders.
	scfg := spec.SupervisorConfig(comm)
	scfg.Engine.Telemetry = reg
	scfg.Engine.Tracer = tracer
	scfg.Engine.Timeline = cfg.timeline
	scfg.Telemetry = reg
	scfg.Tracer = tracer
	scfg.Health = live.health
	scfg.Joiner = cfg.joiner
	res, err := train.Supervise(scfg)
	if err != nil {
		live.health.Set(telemetry.HealthFailed, "error", err.Error())
		writeTruncatedTelemetry(rank, reg, tracer, cfg)
		return exitFailure, err
	}
	if res.Outcome == train.OutcomeKilled {
		// Still an abnormal exit for the telemetry files: leave an honestly
		// marked partial export (a surviving leader overwrites it later).
		fmt.Fprintf(os.Stderr, "rank %d: aborted transport after step %d (crash demo)\n", rank, res.FinalStep)
		writeTruncatedTelemetry(rank, reg, tracer, cfg)
		return exitInjectedDeath, nil
	}
	live.health.Set(telemetry.HealthDone,
		"outcome", res.Outcome.String(), "final_step", res.FinalStep, "world", res.WorldSize)

	// After a shrink the survivor set is renumbered, so the final leader —
	// the rank that reports for the job — may be any original rank.
	leader := res.Rank == 0
	if res.Outcome == train.OutcomeClean {
		// Clean means the original world, and the supervisor has shut its
		// engine down, so the communicator is free for the closing
		// collectives: gather profiles, then every rank's metrics and trace,
		// to rank 0 before the communicator goes away.
		if prof != nil {
			if err := prof.gather(comm, rank, cfg.profileDir); err != nil {
				fmt.Fprintf(os.Stderr, "rank %d: profile gather: %v\n", rank, err)
			}
		}
		if err := exportTelemetry(comm, rank, reg, tracer, cfg); err != nil {
			writeTruncatedTelemetry(rank, reg, tracer, cfg)
			return exitFailure, err
		}
	} else if leader {
		// The original communicator is stale after a shrink, so no job-wide
		// gather: the final leader exports its local view.
		snaps, events := localTelemetry(rank, reg, tracer)
		if err := writeTelemetry(cfg, snaps, events, false); err != nil {
			return exitFailure, err
		}
	}
	if leader {
		printSummary(spec, root, res, ft.Stats())
	}
	if res.Outcome == train.OutcomeRecovered {
		return exitRecovered, nil
	}
	return exitClean, nil
}

// printSummary is the final leader's report for the job.
func printSummary(spec *job.Spec, root string, res *train.SupervisorResult, fs mpi.FaultStats) {
	fmt.Printf("job: %d ranks x batch %d, %d steps over TCP (%s), outcome %s\n",
		spec.Ranks(), spec.Batch, spec.Steps, root, res.Outcome)
	for _, ev := range res.Recoveries {
		fmt.Printf("recovery: world %d -> %d (lost ranks %v), rolled back to step %d, %.0f ms\n",
			ev.OldSize, ev.NewSize, ev.FailedRanks, ev.ResumeStep,
			float64(ev.Latency)/float64(time.Millisecond))
	}
	for _, rg := range res.Regrows {
		fmt.Printf("regrow: world %d -> %d (readmitted ranks %v), resumed at step %d, %.0f ms\n",
			rg.OldSize, rg.NewSize, rg.Joined, rg.ResumeStep,
			float64(rg.Latency)/float64(time.Millisecond))
	}
	if n := len(res.Steps); n > 0 { // none when a checkpoint already held the whole budget
		tput := train.Throughput(res.Steps)
		fmt.Printf("final: step %d, loss %.4f, per-rank %.1f img/s, aggregate ~%.1f img/s on %d rank(s)\n",
			res.FinalStep, res.Steps[n-1].Loss, tput, float64(res.WorldSize)*tput, res.WorldSize)
	}
	s := res.EngineStats
	fmt.Printf("horovod: %d framework tensors -> %d fused allreduces (%d cycles, %.1f KiB fused, max %d tensors/fusion, %d restarts)\n",
		s.FrameworkRequests, s.EngineAllreduces, s.Cycles, float64(s.FusedBytes)/1024, s.MaxFusedTensors, s.Restarts)
	if fs.Dropped+fs.Delayed+fs.Duplicated > 0 {
		fmt.Printf("faults: %d sent, %d dropped, %d delayed, %d duplicated (seed %d)\n",
			fs.Sent, fs.Dropped, fs.Delayed, fs.Duplicated, spec.Seed)
	}
}

// writeTelemetry is the one write step behind the three exports below: the
// metrics document for snaps and the Chrome trace of events, each to its
// configured path, carrying the "truncated": true marker on the
// abnormal-exit path.
func writeTelemetry(cfg workerConfig, snaps []telemetry.Snapshot, events []telemetry.TraceEvent, truncated bool) error {
	writeMetrics, writeTrace, note := telemetry.WriteMetrics, telemetry.WriteChromeTrace, ""
	if truncated {
		writeMetrics, writeTrace = telemetry.WriteMetricsTruncated, telemetry.WriteChromeTraceTruncated
		note = " (truncated: abnormal exit)"
	}
	if cfg.metrics != "" {
		if err := writeFileWith(cfg.metrics, func(w *os.File) error { return writeMetrics(w, snaps) }); err != nil {
			return err
		}
		fmt.Printf("telemetry: metrics for %d rank(s) -> %s%s\n", len(snaps), cfg.metrics, note)
	}
	if cfg.trace != "" {
		if err := writeFileWith(cfg.trace, func(w *os.File) error { return writeTrace(w, events) }); err != nil {
			return err
		}
		fmt.Printf("telemetry: %d trace event(s) -> %s%s\n", len(events), cfg.trace, note)
	}
	return nil
}

// localTelemetry snapshots one rank's own registry and trace, the events
// under the rank's process-name header.
func localTelemetry(rank int, reg *telemetry.Registry, tracer *telemetry.Tracer) ([]telemetry.Snapshot, []telemetry.TraceEvent) {
	snap := reg.Snapshot()
	snap.Rank = rank
	events := append([]telemetry.TraceEvent{telemetry.ProcessName(rank, fmt.Sprintf("rank %d", rank))}, tracer.Events()...)
	return []telemetry.Snapshot{snap}, events
}

// exportTelemetry gathers every rank's metrics snapshot and trace events to
// rank 0 (one AllgatherBytes of JSON bundles) and writes the merged metrics
// document and a single multi-process Chrome trace (pid = rank). All ranks
// must call it when metrics or tracing is enabled; non-root ranks only
// contribute their bundle.
func exportTelemetry(comm *mpi.Comm, rank int, reg *telemetry.Registry, tracer *telemetry.Tracer, cfg workerConfig) error {
	if cfg.metrics == "" && cfg.trace == "" {
		return nil
	}
	snap := reg.Snapshot()
	snap.Rank = rank
	blob, err := telemetry.Bundle{Snapshot: snap, Events: tracer.Events()}.Encode()
	if err != nil {
		return err
	}
	parts, err := comm.AllgatherBytes(blob)
	if err != nil {
		return fmt.Errorf("telemetry gather: %w", err)
	}
	if rank != 0 {
		return nil
	}
	snaps := make([]telemetry.Snapshot, 0, len(parts))
	var events []telemetry.TraceEvent
	for r, part := range parts {
		b, err := telemetry.DecodeBundle(part)
		if err != nil {
			return fmt.Errorf("telemetry bundle from rank %d: %w", r, err)
		}
		snaps = append(snaps, b.Snapshot)
		if len(b.Events) > 0 {
			events = append(events, telemetry.ProcessName(r, fmt.Sprintf("rank %d", r)))
			events = append(events, b.Events...)
		}
	}
	return writeTelemetry(cfg, snaps, events, false)
}

// writeTruncatedTelemetry is the abnormal-exit export: rank 0 writes its
// local partial metrics and trace with an explicit "truncated": true marker,
// so an aborted or failed run leaves inspectable, honestly-labeled output
// instead of no files at all. Best-effort — the process is already on an
// error path.
func writeTruncatedTelemetry(rank int, reg *telemetry.Registry, tracer *telemetry.Tracer, cfg workerConfig) {
	// Every dying rank flushes its flight recorder — not just rank 0, which
	// alone owns the merged output paths below — so the post-mortem for the
	// rank that actually failed is never the one that gets lost.
	dumpFlight(rank, tracer, cfg, "abnormal-exit")
	if rank != 0 {
		return // only rank 0 owns the output paths
	}
	snaps, events := localTelemetry(rank, reg, tracer)
	_ = writeTelemetry(cfg, snaps, events, true) // best-effort, see above
}

// dumpFlight flushes this rank's flight-recorder ring to a JSON dump file so
// an abnormal exit leaves the final spans inspectable. The dump lands in
// -flight_dir when set, else alongside the -trace or -metrics output; with
// neither configured there is nowhere sensible to write, so it is skipped.
// Best-effort: the process is already dying.
func dumpFlight(rank int, tracer *telemetry.Tracer, cfg workerConfig, reason string) {
	fr := tracer.FlightRecorder()
	if fr == nil || fr.Len() == 0 {
		return
	}
	dir := cfg.flightDir
	if dir == "" {
		switch {
		case cfg.trace != "":
			dir = filepath.Dir(cfg.trace)
		case cfg.metrics != "":
			dir = filepath.Dir(cfg.metrics)
		default:
			return
		}
	}
	os.MkdirAll(dir, 0o755)
	path := filepath.Join(dir, fmt.Sprintf("flight-rank%d.json", rank))
	if err := fr.DumpToFile(path, rank, reason); err == nil {
		fmt.Fprintf(os.Stderr, "flight recorder: rank %d dumped %d event(s) -> %s (%s)\n",
			rank, fr.Len(), path, reason)
	}
}

// liveState holds one rank's half of the live observability plane: its
// publisher, and on the host rank the HTTP server, health and detector.
// The zero value (live plane off) is safe everywhere: health setters and
// publisher stops are nil-receiver no-ops.
type liveState struct {
	pub    *telemetry.Publisher
	srv    *serve.Server
	health *telemetry.Health
	linger time.Duration
}

// startLive wires the live plane when -listen is set: rank 0 binds the HTTP
// endpoint and subscribes to telemetry pushes on the transport; every rank
// starts a Publisher whose sink is a lossy point-to-point Send toward
// original rank 0 (rank 0 short-circuits into its own store).
func startLive(comm *mpi.Comm, rank int, cfg workerConfig, reg *telemetry.Registry, tracer *telemetry.Tracer) (*liveState, error) {
	if cfg.listen == "" {
		return &liveState{}, nil
	}
	l := &liveState{health: telemetry.NewHealth(), linger: cfg.linger}
	var sink func([]byte) error
	if rank == 0 {
		det := detect.New(reg, tracer)
		l.srv = serve.New(serve.NewStore(0), l.health, det)
		l.srv.SetFlightRecorder(tracer.FlightRecorder(), 0)
		addr, err := l.srv.Start(cfg.listen)
		if err != nil {
			return nil, err
		}
		ch, err := comm.Subscribe(mpi.TagTelemetry, 4*comm.Size())
		if err != nil {
			l.srv.Close()
			return nil, err
		}
		l.srv.Collect(ch)
		fmt.Printf("live: rank 0 serving /metrics /metrics.json /trace /healthz on http://%s\n", addr)
		store := l.srv.Store()
		sink = func(b []byte) error {
			bun, err := telemetry.DecodeBundle(b)
			if err != nil {
				return err
			}
			store.Update(bun)
			return nil
		}
	} else {
		sink = func(b []byte) error { return comm.Send(0, mpi.TagTelemetry, b) }
	}
	l.pub = telemetry.NewPublisher(reg, tracer, sink, telemetry.PublisherOptions{
		Interval: cfg.publishEvery, Rank: rank,
	})
	return l, nil
}

// shutdown flushes the final publish, optionally lingers so late scrapes can
// observe the terminal /healthz state, then stops the server.
func (l *liveState) shutdown() {
	l.pub.Stop()
	if l.srv != nil {
		if l.linger > 0 {
			time.Sleep(l.linger)
		}
		l.srv.Close()
	}
}

func writeFileWith(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
