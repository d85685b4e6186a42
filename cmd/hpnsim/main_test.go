package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// A usage error after the CPU profile started must still flush it.
func TestCPUProfileFlushedOnUsageError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if code := run([]string{"-model", "nope", "-cpuprofile", path}); code != 2 {
		t.Fatalf("unknown model: exit %d, want 2", code)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("CPU profile is empty: the profile was never flushed")
	}
}

// A sharded run writes the flat metrics file through the same output path
// as a single-pod run, with every pod's counters absorbed into it; a
// metrics file it cannot create is a run error.
func TestShardedRunWritesMetrics(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.prom")
	args := []string{"-hosts", "8", "-pods", "2", "-iters", "2", "-memo", "on", "-metrics", path}
	if code := run(args); code != 0 {
		t.Fatalf("sharded run: exit %d, want 0", code)
	}
	prom, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"netsim_flows_completed_total", "c2_memo_misses_total"} {
		if !bytes.Contains(prom, []byte(want)) {
			t.Errorf("metrics file lacks %s", want)
		}
	}
	args[len(args)-1] = filepath.Join(dir, "missing", "metrics.prom")
	if code := run(args); code != 1 {
		t.Fatalf("unwritable metrics file: exit %d, want 1", code)
	}
}
