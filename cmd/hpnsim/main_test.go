package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hpn"
	"hpn/cmd/internal/observe"
	"hpn/internal/sim"
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

// -shards 0 runs NumCPU shard workers; a negative count is
// a usage error.
func TestShardsZeroSelectsNumCPU(t *testing.T) {
	out := captureStdout(t, func() {
		if code := run([]string{"-hosts", "8", "-pods", "2", "-iters", "1", "-shards", "0"}); code != 0 {
			t.Errorf("-shards 0: exit %d, want 0", code)
		}
	})
	if want := fmt.Sprintf(", %d shard workers\n", runtime.NumCPU()); !strings.Contains(out, want) {
		t.Errorf("-shards 0 output lacks %q:\n%s", want, out)
	}
	if code := run([]string{"-hosts", "8", "-pods", "2", "-iters", "1", "-shards", "-1"}); code != 2 {
		t.Errorf("-shards -1: exit %d, want 2", code)
	}
}

// Non-positive sizes are usage errors: they neither panic nor run an empty
// simulation. So is a stray positional argument, which would otherwise end
// flag parsing and silently drop every later flag.
func TestNonPositiveSizesExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-tp", "0"}, {"-pp", "0"}, {"-hosts", "0"}, {"-pods", "2", "-hosts", "0"},
		{"-iters", "0"}, {"-iters", "-2"}, {"-pods", "0"},
		{"stray", "-iters", "1"}, {"-iters", "1", "stray"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// Every mode runs to completion and writes exactly the artifacts asked
// for. DIR stands for the run's output directory.
func TestModesWriteArtifacts(t *testing.T) {
	every := []string{"flight.tsv", "flowlog.tsv", "inband.json", "inband.tsv", "incidents.json",
		"incidents.tsv", "prof.json", "samples.csv"}
	var observed []string
	for _, dir := range []string{"he", "in", "pr"} {
		for _, name := range every {
			observed = append(observed, filepath.Join(dir, name))
		}
	}
	for _, tc := range []struct {
		name string
		args []string
		want []string
	}{
		{"hpn", []string{"-arch", "hpn", "-metrics", "DIR/m.prom"}, []string{"m.prom"}},
		{"dcn", []string{"-arch", "dcn", "-trace", "DIR/t.json"}, []string{"t.json"}},
		{"sharded-memo", []string{"-pods", "2", "-shards", "2", "-memo", "on", "-inband", "DIR/in"}, []string{
			"in/c2_flowlog.tsv", "in/c2_inband.json", "in/c2_inband.tsv",
			"in/c3_flowlog.tsv", "in/c3_inband.json", "in/c3_inband.tsv",
			"in/flowlog.tsv", "in/inband.json", "in/inband.tsv"}},
		{"observers", []string{"-trace", "DIR/t.json", "-inband", "DIR/in", "-health", "DIR/he", "-prof", "DIR/pr"},
			append(observed, "t.json")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := []string{"-hosts", "8", "-iters", "2"}
			for _, a := range tc.args {
				args = append(args, strings.Replace(a, "DIR", dir, 1))
			}
			captureStdout(t, func() {
				if code := run(args); code != 0 {
					t.Errorf("%v: exit %d, want 0", tc.args, code)
				}
			})
			var got []string
			err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
				if err == nil && !d.IsDir() {
					rel, _ := filepath.Rel(dir, path)
					got = append(got, rel)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(tc.want)
			if !slices.Equal(got, tc.want) {
				t.Errorf("wrote %v, want %v", got, tc.want)
			}
		})
	}
}

// A run that stalls exits 1 but still prints its table and writes every
// requested output: those are what explain the stall. A single-ToR host
// whose only uplink fails for good never finishes its first iteration.
func TestStalledRunWritesOutputs(t *testing.T) {
	dir := t.TempDir()
	cfg := hpn.SmallHPN(1, 8, 8)
	cfg.DualToR, cfg.DualPlane = false, false
	opt := hpn.DefaultTelemetryOptions()
	opt.Trace, opt.Health = true, true
	s := hpn.Scenario{HPN: &cfg, Model: hpn.LLaMa13B, TP: 8, PP: 1, Hosts: 8, Iterations: 2, Telemetry: &opt,
		Faults: []hpn.LinkFault{{FailAt: 50 * sim.Millisecond}}}
	obs := &observe.Flags{Trace: filepath.Join(dir, "t.json"), Health: filepath.Join(dir, "he")}
	printed := captureStdout(t, func() {
		if code := execute(s, obs); code != 1 {
			t.Errorf("stalled run: exit %d, want 1", code)
		}
	})
	if !strings.Contains(printed, "mean samples/s:") {
		t.Errorf("stalled run printed no results:\n%s", printed)
	}
	for _, name := range []string{"t.json", "he/incidents.tsv", "he/incidents.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("stalled run did not write %s: %v", name, err)
		}
	}
}

// captureStdout returns what fn prints to standard output.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	fn()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
