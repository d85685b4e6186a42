package main

import (
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// runner executes one rep at the given GOMAXPROCS. The benchmark runs
// every rep in a fresh child process, one at a time; the smoke test runs
// them in process.
type runner func(cfg repConfig, procs int) repResult

// repTimeout bounds one child rep; the largest takes a few seconds.
const repTimeout = 120 * time.Second

// childRunner runs each rep as `exe -child <config>`.
func childRunner(exe string) runner {
	return func(cfg repConfig, procs int) repResult {
		arg, err := json.Marshal(cfg)
		if err != nil {
			return repResult{Err: err.Error()}
		}
		ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
		defer cancel()
		cmd := exec.CommandContext(ctx, exe, "-child", string(arg))
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return repResult{Err: fmt.Sprintf("rep %s: %v", arg, err)}
		}
		var res repResult
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return repResult{Err: fmt.Sprintf("rep %s: bad report: %v", arg, err)}
		}
		return res
	}
}

// inProcess runs a rep in this process; its peak RSS is then the test
// process's.
func inProcess(cfg repConfig, procs int) repResult {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	return runRep(cfg)
}

//go:embed expect/*.json
var expectFS embed.FS

func expectName(workload string, seed uint64) string {
	return fmt.Sprintf("%s.%#x.json", workload, seed)
}

// expected returns the committed fingerprint for a workload and seed, if
// there is one.
func expected(workload string, seed uint64) (fingerprint, bool) {
	b, err := expectFS.ReadFile("expect/" + expectName(workload, seed))
	if err != nil {
		return fingerprint{}, false
	}
	var fp fingerprint
	if err := json.Unmarshal(b, &fp); err != nil {
		return fingerprint{}, false
	}
	return fp, true
}

// check counts the reps that errored or whose fingerprint differs from the
// reference: the committed expectation for this seed when there is one
// (full-size reps only), else the fingerprint most reps agree on.
func check(workload string, seed uint64, tiny bool, reps []repResult) (failed int, ref fingerprint, problems []string) {
	want, haveWant := expected(workload, seed)
	if tiny {
		haveWant = false
	}
	if !haveWant {
		votes := map[string]int{}
		best := -1
		for _, r := range reps {
			if r.Err != "" {
				continue
			}
			k := r.Fingerprint.key()
			votes[k]++
			if votes[k] > best {
				best, want = votes[k], r.Fingerprint
			}
		}
	}
	for i, r := range reps {
		switch {
		case r.Err != "":
			failed++
			problems = append(problems, fmt.Sprintf("%s rep %d: %s", workload, i+1, r.Err))
		case r.Fingerprint.key() != want.key():
			failed++
			problems = append(problems, fmt.Sprintf("%s rep %d: fingerprint %s, want %s", workload, i+1, r.Fingerprint.key(), want.key()))
		}
	}
	return failed, want, problems
}

// minIterations is the fewest iterations a rep must time for its workload
// to report iteration times: with fewer, the median and the tail are a
// handful of samples.
const minIterations = 100

// endToEndSummaries reduces a workload's successful reps to the end-to-end
// metrics, each a median (peak_rss_mb: the lowest rep) with quartiles over
// reps, plus the iteration times of workloads that time at least
// minIterations. Host times are in nominal seconds (see hostref.go);
// host_ref_ms keeps the readings they were scaled by, and raw_run_s the run
// time before scaling.
func endToEndSummaries(reps []repResult, attempted, failed int) map[string]summary {
	col := map[string][]float64{}
	var iters []float64
	for _, r := range reps {
		if r.Err != "" {
			continue
		}
		flows := float64(r.Fingerprint.Flows)
		k := speedScale(r)
		col["setup_s"] = append(col["setup_s"], k*r.SetupS)
		col["run_s"] = append(col["run_s"], k*r.RunS)
		col["raw_run_s"] = append(col["raw_run_s"], r.RunS)
		col["total_s"] = append(col["total_s"], k*r.TotalS)
		col["flows_per_s"] = append(col["flows_per_s"], flows/(k*r.RunS))
		col["ref_ms"] = append(col["ref_ms"], 1000*r.RefS)
		col["allocs_per_flow"] = append(col["allocs_per_flow"], float64(r.Allocs)/flows)
		col["bytes_per_flow"] = append(col["bytes_per_flow"], float64(r.AllocBytes)/flows)
		col["peak_rss_mb"] = append(col["peak_rss_mb"], r.PeakRSSMB)
		col["live_heap_mb"] = append(col["live_heap_mb"], r.LiveHeapMB)
		if r.ArtifactS > 0 {
			col["artifact_s"] = append(col["artifact_s"], k*r.ArtifactS)
		}
		if len(r.IterMS) >= minIterations {
			col["iter_ms_p50"] = append(col["iter_ms_p50"], k*median(r.IterMS))
			for _, ms := range r.IterMS {
				iters = append(iters, k*ms)
			}
		}
	}
	out := map[string]summary{}
	for _, m := range endToEnd {
		out[m.name] = summarize(m.unit, col[m.name])
	}
	out["peak_rss_mb"] = summarize("MiB", col["peak_rss_mb"])
	if rss := col["peak_rss_mb"]; len(rss) > 0 {
		// GC pacing decides how far the heap overshoots between cycles, so a
		// rep's peak RSS can double at random; the smallest peak is the
		// footprint the program needs and repeats across runs.
		s := out["peak_rss_mb"]
		s.Stat, s.Value = "min", slices.Min(rss)
		out["peak_rss_mb"] = s
	}
	if len(col["artifact_s"]) > 0 {
		out["artifact_s"] = summarize("s", col["artifact_s"])
	}
	out["host_ref_ms"] = summarize("ms", col["ref_ms"])
	out["raw_run_s"] = summarize("s", col["raw_run_s"])
	if len(iters) > 0 {
		out["iter_ms_p50"] = summarize("ms", col["iter_ms_p50"])
		t, pct := tail(iters)
		out["iter_ms_tail"] = summary{Unit: "ms", Value: t, Q1: t, Q3: t, N: len(iters), Stat: pct}
	}
	frac := 0.0
	if attempted > 0 {
		frac = float64(failed) / float64(attempted)
	}
	out["fail_frac"] = summary{Unit: "fraction", Value: frac, Q1: frac, Q3: frac, N: attempted}
	return out
}

// result is the JSON line a single-workload run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finite maps NaN and ±Inf (a ratio over an empty rep set) to 0 so the
// line stays valid JSON; the rep set is then reported as failed anyway.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Budget of one single-workload run: at least minReps measured reps, more
// while the measuring time lasts, and no new rep after hardStop, so the
// run ends well inside three minutes even on a slow host.
const (
	minReps  = 3
	hardStop = 100 * time.Second
)

// workloadRun is one workload's measurement at one seed.
type workloadRun struct {
	Name       string             `json:"name"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Problems   []string           `json:"problems,omitempty"`
	Metrics    map[string]summary `json:"metrics"`
	// Fingerprint is the simulated outcome every rep agreed on.
	Fingerprint fingerprint `json:"fingerprint"`
}

// measure runs reps of one workload until the measuring time is spent and
// reduces them to end-to-end metrics.
func measure(run runner, w workload, seed uint64, seconds time.Duration, tiny bool) workloadRun {
	cfg := repConfig{Workload: w.name, Seed: seed, Tiny: tiny}
	procs := procsFor(w, "")
	start := clock()
	var reps []repResult
	for len(reps) < minReps || clock().Sub(start) < seconds {
		reps = append(reps, run(cfg, procs))
		if clock().Sub(start) > hardStop {
			break
		}
	}
	return reduce(w, seed, tiny, procs, reps)
}

func reduce(w workload, seed uint64, tiny bool, procs int, reps []repResult) workloadRun {
	failed, ref, problems := check(w.name, seed, tiny, reps)
	return workloadRun{
		Name: w.name, GoMaxProcs: procs, Attempted: len(reps), Failed: failed, Problems: problems,
		Metrics: endToEndSummaries(reps, len(reps), failed), Fingerprint: ref,
	}
}

// endToEndLine is the single-workload JSON line of an untraced run.
func endToEndLine(wr workloadRun) result {
	res := result{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]metricValue{}}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{Value: finite(wr.Metrics[m.name].Value), Unit: m.unit}
	}
	return res
}

// tracePass runs one traced rep of a workload, then its measured form and
// its comparison variant alternately — until the measuring time is spent,
// or for a fixed number of pairs when pairs > 0 — and derives every
// per-layer metric. The traced rep, every measured rep and the comparison
// variant must reproduce the same simulated outcome; the traced pass fails
// otherwise.
func tracePass(run runner, w workload, seed uint64, seconds time.Duration, pairs int, tiny bool) workloadRun {
	start := clock()
	base := repConfig{Workload: w.name, Seed: seed, Tiny: tiny}
	traced := base
	traced.Traced = true
	variant := base
	variant.Variant = w.variant
	tr := run(traced, procsFor(w, ""))
	var baseReps, varReps []repResult
	for n := 0; ; n++ {
		if pairs > 0 && n >= pairs {
			break
		}
		if pairs <= 0 && n >= 2 && (clock().Sub(start) >= seconds || clock().Sub(start) > hardStop) {
			break
		}
		baseReps = append(baseReps, run(base, procsFor(w, "")))
		varReps = append(varReps, run(variant, procsFor(w, w.variant)))
	}

	failed, ref, problems := check(w.name, seed, tiny, baseReps)
	attempted := 1 + len(baseReps) + len(varReps)
	fail := func(format string, args ...any) {
		failed++
		problems = append(problems, w.name+": "+fmt.Sprintf(format, args...))
	}
	if tr.Err != "" {
		fail("traced rep: %s", tr.Err)
	} else if tr.Fingerprint.key() != ref.key() {
		fail("traced rep fingerprint %s, untraced %s", tr.Fingerprint.key(), ref.key())
	}
	for _, v := range varReps {
		got, want := v.Fingerprint, ref
		if w.variant == "health-off" || w.variant == "obs-off" {
			// Observers add events, incidents and artifacts; the simulated
			// training itself must not change.
			got, want = got.simulation(), want.simulation()
		}
		switch {
		case v.Err != "":
			fail("%s rep: %s", w.variant, v.Err)
		case got.key() != want.key():
			fail("%s rep fingerprint %s, want %s", w.variant, got.key(), want.key())
		}
	}
	if w.name == "longrun-memo" {
		on := run(repConfig{Workload: w.name, Seed: seed, Tiny: tiny, Variant: "memo50-on"}, 1)
		off := run(repConfig{Workload: w.name, Seed: seed, Tiny: tiny, Variant: "memo50-off"}, 1)
		attempted += 2
		on.Fingerprint.MemoReplayed, off.Fingerprint.MemoReplayed = 0, 0
		switch {
		case on.Err != "" || off.Err != "":
			fail("memo pair: %q / %q", on.Err, off.Err)
		case on.Fingerprint.key() != off.Fingerprint.key():
			fail("memo on %s, memo off %s", on.Fingerprint.key(), off.Fingerprint.key())
		}
	}

	m := map[string]summary{}
	k := speedScale(tr)
	for _, d := range perLayer {
		v := tr.Layers[d.name]
		switch d.unit {
		case "s", "ms", "us", "ns":
			v *= k
		}
		m[d.name] = layerValue(d.unit, v)
	}
	// The variant ratios use raw times: the two sides alternate rep by rep,
	// which already cancels drift, and a two-core rep and a one-core rep are
	// read against different references.
	runS := func(reps []repResult) float64 {
		var xs []float64
		for _, r := range reps {
			if r.Err == "" {
				xs = append(xs, r.RunS)
			}
		}
		return median(xs)
	}
	baseRun, varRun := runS(baseReps), runS(varReps)
	switch w.variant {
	case "procs1":
		m["netsim.parallel_gain"] = layerValue("x", varRun/baseRun)
	case "serial":
		m["sim.shard_speedup"] = layerValue("x", varRun/baseRun)
	case "health-off":
		m["memo.observer_share"] = layerValue("fraction", 1-varRun/baseRun)
	case "obs-off":
		m["telemetry.run_overhead"] = layerValue("x", baseRun/varRun)
	}
	e2e := endToEndSummaries(baseReps, len(baseReps), 0)
	for _, name := range []string{"iter_ms_p50", "iter_ms_tail"} {
		if s, ok := e2e[name]; ok {
			m[name] = s
		}
	}
	// The traced rep builds each topology twice more (see topoSpan), so
	// setup allocations come from the measured reps.
	var setupAllocs []float64
	for _, r := range baseReps {
		setupAllocs = append(setupAllocs, float64(r.SetupAllocs))
	}
	m["setup.allocs"] = layerValue("count", median(setupAllocs))
	m["bench.trace_overhead"] = layerValue("x", k*tr.TotalS/e2e["total_s"].Value)
	return workloadRun{
		Name: w.name, GoMaxProcs: procsFor(w, ""), Attempted: attempted, Failed: failed, Problems: problems,
		Metrics: m, Fingerprint: ref,
	}
}

func layerValue(unit string, v float64) summary {
	v = finite(v)
	return summary{Unit: unit, Value: v, Q1: v, Q3: v, N: 1, Values: []float64{v}}
}

// perLayerLine is the single-workload JSON line of a traced run.
func perLayerLine(wr workloadRun) result {
	res := result{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]metricValue{}}
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{Value: finite(wr.Metrics[m.name].Value), Unit: m.unit}
	}
	return res
}

// ledger is one suite run: the committed form of a baseline in runs/.
type ledger struct {
	Stamp     string        `json:"stamp"`
	Host      hostInfo      `json:"host"`
	Seed      string        `json:"seed"`
	Traced    bool          `json:"traced"`
	Reps      int           `json:"reps"`
	Workloads []workloadRun `json:"workloads"`
}

type hostInfo struct {
	CPUs      int    `json:"cpus"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	GoVersion string `json:"go_version"`
}

func thisHost() hostInfo {
	return hostInfo{CPUs: runtime.NumCPU(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version()}
}

// suite runs every workload reps times, one rep at a time and round-robin
// (rep 1 of every workload, then rep 2, ...), so slow drift of the host is
// spread over all workloads instead of landing on one.
func suite(run runner, seed uint64, reps int, tiny bool) []workloadRun {
	all := make([][]repResult, len(workloads))
	for i := 0; i < reps; i++ {
		for j, w := range workloads {
			all[j] = append(all[j], run(repConfig{Workload: w.name, Seed: seed, Tiny: tiny}, procsFor(w, "")))
		}
	}
	out := make([]workloadRun, len(workloads))
	for j, w := range workloads {
		out[j] = reduce(w, seed, tiny, procsFor(w, ""), all[j])
	}
	return out
}

// printTable writes one workload's metrics as value (the median unless the
// name says otherwise), quartiles and n.
func printTable(out io.Writer, wr workloadRun, defs []metricDef) {
	fmt.Fprintf(out, "\n%s (GOMAXPROCS %d, %d attempted, %d failed)\n", wr.Name, wr.GoMaxProcs, wr.Attempted, wr.Failed)
	fmt.Fprintf(out, "  %-30s %-13s %14s %14s %14s %5s\n", "metric", "unit", "value", "q1", "q3", "n")
	for _, d := range defs {
		s, ok := wr.Metrics[d.name]
		if !ok {
			fmt.Fprintf(out, "  %-30s %-13s %14s\n", d.name, d.unit, "-")
			continue
		}
		name := d.name
		if s.Stat != "" && s.Stat != "median" {
			name += " (" + s.Stat + ")"
		}
		fmt.Fprintf(out, "  %-30s %-13s %14.6g %14.6g %14.6g %5d\n", name, d.unit, s.Value, s.Q1, s.Q3, s.N)
	}
	for _, p := range wr.Problems {
		fmt.Fprintf(out, "  FAIL %s\n", p)
	}
}

// writeLedger writes the suite run as JSON to path.
func writeLedger(path string, l ledger) error {
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// updateExpect regenerates the committed fingerprints in expect/, the
// directory the binary embeds them from: every workload at the default
// seed and the held-out seed, one rep each. It runs in the benchmark's own
// directory, where `go run .` and run.sh run it.
func updateExpect(run runner, seeds []uint64, out io.Writer) error {
	const dir = "expect"
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return fmt.Errorf("no %s/ directory here: run -update-expect in the perfbench directory", dir)
	}
	for _, seed := range seeds {
		for _, w := range workloads {
			res := run(repConfig{Workload: w.name, Seed: seed}, procsFor(w, ""))
			if res.Err != "" {
				return fmt.Errorf("%s at seed %#x: %s", w.name, seed, res.Err)
			}
			b, err := json.MarshalIndent(res.Fingerprint, "", "  ")
			if err != nil {
				return err
			}
			path := filepath.Join(dir, expectName(w.name, seed))
			if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", path)
		}
	}
	return nil
}
