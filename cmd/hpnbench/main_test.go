package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// A failing run must still flush and close its CPU profile: the exit
// status comes back from run, so the deferred stop is never skipped.
func TestCPUProfileFlushedOnFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if code := run([]string{"-exp", "nope", "-cpuprofile", path}); code != 1 {
		t.Fatalf("unknown experiment: exit %d, want 1", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("CPU profile is empty: the profile was never flushed")
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("CPU profile is not gzip: %v", err)
	}
	if _, err := io.Copy(io.Discard, zr); err != nil {
		t.Fatalf("CPU profile gzip stream truncated: %v", err)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-memo", "maybe"},
		{"-shards", "-1"},
		{"-scale", "huge"},
		{"-nosuchflag"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%q): exit %d, want 2", args, code)
		}
	}
}
