package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"dnnperf/internal/mpi"
)

// profiler captures one worker rank's Go profile (-profile cpu|heap). A CPU
// profile runs for the whole training section; a heap profile is a single
// snapshot taken at stop time (after a forced GC, so it reflects live
// retained memory, not garbage). Profiles are gathered to rank 0 over the
// job's own communicator on the clean path, and written locally by each
// rank when no gather is possible (elastic shrink, failure paths).
type profiler struct {
	mode string
	buf  bytes.Buffer
	done bool // profile already persisted (gathered or written locally)
	off  bool // capture stopped
}

func startProfiler(mode string) (*profiler, error) {
	p := &profiler{mode: mode}
	if mode == "cpu" {
		if err := pprof.StartCPUProfile(&p.buf); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	return p, nil
}

// stop ends the capture and finalizes the profile bytes. Idempotent.
func (p *profiler) stop() {
	if p == nil || p.off {
		return
	}
	p.off = true
	switch p.mode {
	case "cpu":
		pprof.StopCPUProfile()
	case "heap":
		runtime.GC()
		pprof.Lookup("heap").WriteTo(&p.buf, 0)
	}
}

// gather is a collective: every rank contributes its profile bytes and rank
// 0 writes dir/rank<r>.<mode>.pprof per rank. Call only where every live
// rank reaches the same point (a run that ended clean).
func (p *profiler) gather(comm *mpi.Comm, rank int, dir string) error {
	p.stop()
	parts, err := comm.AllgatherBytes(p.buf.Bytes())
	if err != nil {
		return err
	}
	p.done = true
	if rank != 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for r, part := range parts {
		path := filepath.Join(dir, fmt.Sprintf("rank%d.%s.pprof", r, p.mode))
		if err := os.WriteFile(path, part, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("profile: %d %s profile(s) -> %s\n", len(parts), p.mode, dir)
	return nil
}

// finishLocal persists this rank's own profile if nothing else has — the
// fallback for failure and elastic paths where no gather ran. Nil-safe and
// best-effort, intended for a defer.
func (p *profiler) finishLocal(dir string, rank int) {
	if p == nil || p.done {
		return
	}
	p.stop()
	p.done = true
	if p.buf.Len() == 0 {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("rank%d.%s.pprof", rank, p.mode))
	if os.WriteFile(path, p.buf.Bytes(), 0o644) == nil {
		fmt.Fprintf(os.Stderr, "profile: rank %d local %s profile -> %s\n", rank, p.mode, path)
	}
}
