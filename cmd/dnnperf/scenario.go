package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"dnnperf/internal/scenario"
)

// The scenario subcommand drives the declarative chaos runner:
//
//	dnnperf scenario run [-out dir] [-q] file.yaml...
//	dnnperf scenario check file.yaml...
//	dnnperf scenario list [dir]
//
// run executes each scenario and exits non-zero if any assertion fails;
// check parses and validates without running; list summarizes a scenario
// library directory (default ./scenarios).
func scenarioMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: dnnperf scenario {run|check|list} ...")
		return 2
	}
	switch args[0] {
	case "run":
		return scenarioRun(args[1:])
	case "check":
		return scenarioCheck(args[1:])
	case "list":
		return scenarioList(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "dnnperf scenario: unknown subcommand %q (want run, check or list)\n", args[0])
		return 2
	}
}

func scenarioRun(args []string) int {
	fs := flag.NewFlagSet("scenario run", flag.ExitOnError)
	out := fs.String("out", "", "write report JSON and checkpoints under this directory")
	quiet := fs.Bool("q", false, "suppress progress output; only the final verdicts")
	fs.Parse(args)
	files := fs.Args()
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "usage: dnnperf scenario run [-out dir] [-q] file.yaml...")
		return 2
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "dnnperf scenario:", err)
			return 1
		}
	}
	opts := scenario.Options{OutDir: *out}
	if !*quiet {
		opts.Log = os.Stderr
	}
	failed := 0
	for _, path := range files {
		spec, err := scenario.Load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dnnperf scenario:", err)
			return 1
		}
		rep, err := scenario.Run(spec, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dnnperf scenario: %s: %v\n", spec.Name, err)
			return 1
		}
		verdict := "PASS"
		if !rep.Pass {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("%s %s (%d asserts, %d ms)\n", verdict, spec.Name, len(rep.Asserts), rep.ElapsedMS)
		for _, a := range rep.Asserts {
			if !a.Pass {
				fmt.Printf("  fail %s: %s\n", a.Check, a.Detail)
			}
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func scenarioCheck(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: dnnperf scenario check file.yaml...")
		return 2
	}
	bad := 0
	for _, path := range args {
		spec, err := scenario.Load(path)
		if err != nil {
			fmt.Printf("invalid %s: %v\n", path, err)
			bad++
			continue
		}
		shape := spec.Kind
		if spec.Kind != "sched" {
			js := spec.JobSpec()
			shape = fmt.Sprintf("%s, %d ranks", runsOn(spec), js.Ranks())
		}
		fmt.Printf("ok %s: %s (%s, %d events, %d asserts)\n",
			path, spec.Name, shape, len(spec.Timeline), len(spec.Asserts))
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func scenarioList(args []string) int {
	dir := "scenarios"
	if len(args) > 0 {
		dir = args[0]
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.yaml"))
	if err != nil || len(paths) == 0 {
		fmt.Fprintf(os.Stderr, "dnnperf scenario: no scenario files in %s\n", dir)
		return 1
	}
	sort.Strings(paths)
	for _, path := range paths {
		spec, err := scenario.Load(path)
		if err != nil {
			fmt.Printf("%-28s INVALID: %v\n", filepath.Base(path), err)
			continue
		}
		fmt.Printf("%-28s %-20s %s\n", filepath.Base(path), runsOn(spec), spec.Description)
	}
	return 0
}

// runsOn names what a scenario runs: its kind, and for the live kinds the
// transport under it.
func runsOn(spec *scenario.Spec) string {
	if spec.Transport == "" {
		return spec.Kind
	}
	return spec.Kind + "/" + spec.Transport
}
