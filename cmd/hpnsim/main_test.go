package main

import (
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
