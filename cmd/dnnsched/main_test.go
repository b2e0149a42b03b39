package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkloadIsTheWholeInput: a shape flag next to -workload is rejected
// before anything is loaded or run, instead of being overlaid on the file.
func TestWorkloadIsTheWholeInput(t *testing.T) {
	wl := filepath.Join("..", "..", "examples", "workloads", "preempt.yaml")
	for _, flag := range []string{"-seed=3", "-nodes=2", "-slots=2", "-platform=Skylake-1", "-no_preempt", "-synth=10", "-tenants=2"} {
		err := run([]string{"-workload", wl, flag})
		if err == nil || !strings.Contains(err.Error(), "a -workload file is the whole input") {
			t.Errorf("-workload with %s: want a shape-flag rejection, got %v", flag, err)
		}
	}
}
