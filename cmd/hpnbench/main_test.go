package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"hpn"
)

// A failing run must still flush and close its CPU profile: the exit
// status comes back from run, so the deferred stop is never skipped.
func TestCPUProfileFlushedOnFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if code := run([]string{"-exp", "nope", "-cpuprofile", path}); code != 2 {
		t.Fatalf("unknown experiment: exit %d, want 2", code)
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

// A CPU profile that cannot be created is a write error.
func TestCPUProfileCreateFailureExitsOne(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "cpu.pprof")
	if code := run([]string{"-list", "-cpuprofile", path}); code != 1 {
		t.Fatalf("uncreatable CPU profile: exit %d, want 1", code)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-memo", "maybe"},
		{"-shards", "1"}, // no such flag: multipod runs one worker per pod
		{"-scale", "huge"},
		{"-nosuchflag"},
		{"-exp", "bogus"},
		{"stray", "-exp", "fig17"},
		{"-list", "stray"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%q): exit %d, want 2", args, code)
		}
	}
}

// The multipod experiment's two sharded fabrics each write the artifacts
// of their four pods (c2_-c5_ and c7_-c10_) beside those of their global
// domains.
func TestMultipodWritesPodArtifacts(t *testing.T) {
	dir := t.TempDir()
	captureStdout(t, func() {
		if code := run([]string{"-exp", "multipod", "-inband", dir}); code != 0 {
			t.Errorf("exit %d, want 0", code)
		}
	})
	for _, pod := range []int{2, 3, 4, 5, 7, 8, 9, 10} {
		for _, name := range []string{"inband.tsv", "samples.csv"} {
			path := filepath.Join(dir, fmt.Sprintf("c%d_%s", pod, name))
			if _, err := os.Stat(path); err != nil {
				t.Errorf("pod artifact missing: %v", err)
			}
		}
	}
}

// The memo experiment runs its two sides on hubs of their own, so the run
// hub the observability flags make neither memoizes the memo-off side nor
// samples inside the memo-on side's windows: every claim still holds.
func TestMemoHoldsUnderRunHub(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	out := captureStdout(t, func() {
		if code := run([]string{"-exp", "memo", "-memo", "on", "-trace", path}); code != 0 {
			t.Errorf("exit %d, want 0", code)
		}
	})
	if t.Failed() {
		t.Log(out)
	}
}

// A run's hub ends with the run: a cluster built afterwards in the same
// process joins no hub.
func TestNoHubOutlivesARun(t *testing.T) {
	captureStdout(t, func() {
		if code := run([]string{"-exp", "fig13", "-inband", t.TempDir()}); code != 0 {
			t.Errorf("exit %d, want 0", code)
		}
	})
	c, err := hpn.NewHPN(hpn.SmallHPN(1, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if c.Net.Trace != nil || c.Net.Reg != nil {
		t.Errorf("a cluster built after the run carries a tracer (%v) or a registry (%v)", c.Net.Trace != nil, c.Net.Reg != nil)
	}
}

// captureStdout returns what fn writes to os.Stdout.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	fn()
	os.Stdout = stdout
	w.Close()
	return string(<-done)
}
