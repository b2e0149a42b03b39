// Command dnnsched is the multi-tenant cluster control plane: it takes a
// workload (explicit job specs, a synthetic stream, or both), gang-schedules
// it over a simulated node/slot catalog, and reports per-tenant queueing,
// JCT, preemption, and utilization — the scheduling half of the paper's
// multi-job contention study.
//
// Two modes share one scheduler:
//
//	dnnsched -synth 1000 -tenants 3 -seed 7              # discrete-event sim
//	dnnsched -workload examples/workloads/preempt.yaml -mode real -backend tcp
//
// Discrete-event mode schedules thousands of simulated jobs in milliseconds
// and replays byte-identically for a seed; real mode launches small inproc
// or loopback-TCP gangs and preempts them with the cooperative elastic halt
// (checkpoint, park, regrow). A workload file is the whole input — the job
// specs in it are the same schema `mpirun -job` runs standalone — and the
// shape flags describe a -synth stream only.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dnnperf/internal/job"
	"dnnperf/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dnnsched:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dnnsched", flag.ExitOnError)
	var (
		workload  = fs.String("workload", "", "workload YAML/JSON file (job.Workload schema): the whole input")
		synth     = fs.Int("synth", 0, "synthesize this many jobs from the seed instead of a -workload file")
		tenants   = fs.Int("tenants", 3, "-synth: tenant count")
		seed      = fs.Int64("seed", 1, "-synth: workload seed — same seed, same simulated schedule, byte-for-byte")
		mode      = fs.String("mode", "sim", "sim (discrete-event) or real (launch actual gangs)")
		backend   = fs.String("backend", "inproc", "real-mode backend: inproc or tcp")
		nodes     = fs.Int("nodes", 4, "-synth: cluster nodes")
		slots     = fs.Int("slots", 8, "-synth: schedulable slots per node")
		platform  = fs.String("platform", "Skylake-1", "-synth: hw catalog label for the simulated nodes")
		noPreempt = fs.Bool("no_preempt", false, "-synth: disable priority preemption")
		report    = fs.String("report", "", "write the JSON report here ('-' for stdout)")
		events    = fs.Bool("events", false, "print the scheduler event log")
		quiet     = fs.Bool("q", false, "suppress the human summary")
	)
	fs.Parse(args)
	var w *job.Workload
	if *workload != "" {
		var shape []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "synth", "tenants", "seed", "nodes", "slots", "platform", "no_preempt":
				shape = append(shape, "-"+f.Name)
			}
		})
		if len(shape) > 0 {
			fs.Usage()
			return fmt.Errorf("%s: shape flags describe a -synth stream; a -workload file is the whole input", strings.Join(shape, " "))
		}
		loaded, err := job.LoadWorkload(*workload)
		if err != nil {
			return err
		}
		w = loaded
	} else {
		if *synth <= 0 {
			fs.Usage()
			return fmt.Errorf("need -workload or -synth N")
		}
		w = &job.Workload{
			Name:      "synth",
			Seed:      *seed,
			NoPreempt: *noPreempt,
			Cluster:   job.ClusterSpec{Platform: *platform, Nodes: *nodes, SlotsPerNode: *slots},
			Synth:     &job.SynthSpec{Jobs: *synth, Tenants: *tenants},
		}
	}

	reg := telemetry.New()
	var rep *job.SchedReport
	var err error
	switch *mode {
	case "sim":
		rep, err = job.RunSim(w, job.NewSimBackend(), reg)
	case "real":
		var be job.Backend
		switch *backend {
		case "inproc":
			be = job.InprocBackend{}
		case "tcp":
			be = job.TCPBackend{}
		default:
			return fmt.Errorf("unknown backend %q (want inproc or tcp)", *backend)
		}
		rep, err = job.RunReal(w, be, reg)
	default:
		return fmt.Errorf("unknown mode %q (want sim or real)", *mode)
	}
	if err != nil {
		return err
	}

	if !*quiet {
		printSummary(rep)
	}
	if *events {
		for _, line := range rep.EventLog {
			fmt.Println(line)
		}
	}
	if *report != "" {
		blob, err := rep.JSON()
		if err != nil {
			return err
		}
		blob = append(blob, '\n')
		if *report == "-" {
			_, err = os.Stdout.Write(blob)
		} else {
			err = os.WriteFile(*report, blob, 0o644)
		}
		if err != nil {
			return err
		}
	}
	if rep.Deadlocks > 0 {
		return fmt.Errorf("%d gang deadlocks", rep.Deadlocks)
	}
	if rep.Failed > 0 {
		return fmt.Errorf("%d jobs failed", rep.Failed)
	}
	// Busy slot-time is an integral: it can only grow. A non-monotone curve
	// means the accounting double-released slots — fail loudly so CI's smoke
	// run catches it.
	for i := 1; i < len(rep.UtilizationCurve); i++ {
		prev, cur := rep.UtilizationCurve[i-1], rep.UtilizationCurve[i]
		if cur.AtNS < prev.AtNS || cur.UsedSlotNS < prev.UsedSlotNS {
			return fmt.Errorf("utilization curve not monotone at point %d (t=%d used=%d after t=%d used=%d)",
				i, cur.AtNS, cur.UsedSlotNS, prev.AtNS, prev.UsedSlotNS)
		}
	}
	return nil
}

func printSummary(r *job.SchedReport) {
	fmt.Printf("workload %s  mode=%s seed=%d  cluster %dx%d slots\n",
		r.Workload, r.Mode, r.Seed, r.Nodes, r.SlotsPerNode)
	fmt.Printf("jobs %d: done=%d evicted=%d failed=%d  preemptions=%d deadlocks=%d\n",
		r.Jobs, r.Done, r.Evicted, r.Failed, r.Preemptions, r.Deadlocks)
	fmt.Printf("makespan %v  utilization %.1f%%\n",
		time.Duration(r.MakespanNS).Round(time.Millisecond), 100*r.Utilization)
	for _, t := range r.Tenants {
		fmt.Printf("  tenant %-10s jobs=%-4d done=%-4d preempt=%-3d wait(mean/max) %v/%v  jct(mean/max) %v/%v  slot_s %.1f\n",
			t.Tenant, t.Jobs, t.Done, t.Preemptions,
			time.Duration(t.WaitMeanNS).Round(time.Millisecond),
			time.Duration(t.WaitMaxNS).Round(time.Millisecond),
			time.Duration(t.JCTMeanNS).Round(time.Millisecond),
			time.Duration(t.JCTMaxNS).Round(time.Millisecond),
			float64(t.SlotNS)/float64(time.Second))
	}
}
