package hpn

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hpn/internal/sim"
)

// goldenArtifactNames lists the artifacts the determinism contract requires
// of every engine domain: its flow log, trace, in-band records, health
// incidents and flight ring. A pod domain's names carry its prefix (c2_,
// c3_, ...).
var goldenArtifactNames = []string{
	"flowlog.tsv", "trace.json", "inband.tsv", "inband.json",
	"incidents.tsv", "incidents.json", "flight.tsv",
}

// goldenCase is one run described as data plus what the golden suite checks
// of it. Every case runs fully instrumented: flow log, trace, in-band path
// telemetry, the health monitor and the profiler, whose flight ring joins
// the compared set (prof.json carries host wall times and stays out).
// Everything that could perturb the bytes is exercised on purpose:
// placement, collective schedules, retransmits after a failure, telemetry
// emission order, path-epoch flushes on reroute and detector sweeps.
type goldenCase struct {
	name string
	s    Scenario
	// rows lists artifacts that must hold records, so that no comparison
	// is vacuous.
	rows []string
	// repeat marks a case run twice as is. Every other mode compares two
	// runs as well, so a nondeterministic case fails there too; repeat is
	// for the case no other mode covers with the same configuration.
	repeat bool
	// memo marks a case run with memoization off and on. The memo-on run
	// must replay at least minReplayed iterations, drop its cache on a
	// fabric transition when invalidates is set, and match the memo-off
	// run on every artifact.
	memo        bool
	minReplayed int64
	invalidates bool
}

// goldenOptions is the instrumentation every golden case runs with. The
// periodic sampler stays off where memoization is compared: its 10ms
// daemon tick would land inside every candidate window and block
// memoization (and never fires on a quiesced shard), and both sides of a
// comparison must run the identical configuration.
func goldenOptions(sampling bool) *TelemetryOptions {
	opt := DefaultTelemetryOptions()
	opt.Inband, opt.Health, opt.Prof = true, true, true
	if !sampling {
		opt.SampleInterval = 0
	}
	return &opt
}

// goldenCases returns the golden scenarios, freshly built so that callers
// may edit them.
func goldenCases() []goldenCase {
	pod := SmallHPN(1, 8, 8)
	twoSeg := SmallHPN(2, 4, 8)
	multi := MultiPodHPN(2, 1, 4, 2)
	single := Scenario{HPN: &pod, Model: LLaMa13B, TP: 8, PP: 1, Hosts: 8, FlowLog: true}
	six := single
	six.Hosts = 6
	pipelined := Scenario{HPN: &twoSeg, Model: LLaMa13B, TP: 8, PP: 2, Hosts: 8, FlowLog: true}
	sharded := Scenario{HPN: &multi, Model: LLaMa13B, TP: 8, PP: 1, Hosts: 4, Workers: 1, FlowLog: true}
	// A cable flap on host 0, in pod 0 on the sharded fabric, where it is
	// injected on the owning pod's engine.
	flap := []LinkFault{{FailAt: 50 * sim.Millisecond, RecoverAt: 120 * sim.Millisecond}}
	with := func(s Scenario, iters int, opt *TelemetryOptions, faults []LinkFault) Scenario {
		s.Iterations, s.Telemetry, s.Faults = iters, opt, faults
		return s
	}
	return []goldenCase{{
		// One access cable goes down mid-run and stays down.
		name:   "fault",
		s:      with(single, 2, goldenOptions(true), []LinkFault{{FailAt: 50 * sim.Millisecond}}),
		rows:   []string{"flowlog.tsv", "trace.json", "inband.tsv", "incidents.tsv", "flight.tsv", "samples.csv"},
		repeat: true,
	}, {
		// Steady state: most iterations replay from the recorded window.
		name: "steady",
		s:    with(single, 8, goldenOptions(false), nil),
		rows: []string{"flowlog.tsv"},
		memo: true, minReplayed: 8 - 3,
	}, {
		// Six data-parallel ranks cut the gradient into chunks whose bit
		// counts are not dyadic, so a replayed window's bit movement and a
		// flow-by-flow sum agree only as exact tallies.
		name: "steady-6host",
		s:    with(six, 20, goldenOptions(false), nil),
		rows: []string{"flowlog.tsv"},
		memo: true, minReplayed: 20 - 3,
	}, {
		// Pipeline-parallel sends ride pinned source ports in one batched
		// launch per iteration, and replay must reproduce them as well.
		name: "pp",
		s:    with(pipelined, 8, goldenOptions(false), nil),
		rows: []string{"flowlog.tsv"},
		memo: true, minReplayed: 8 - 3,
	}, {
		// The flap must drop the memo cache and re-simulate, and memoization
		// must re-warm afterwards. Iterations run ~1s of virtual time each
		// and the flap detector keeps its 10s window armed after the
		// transition, so the run is long enough for the detectors to go
		// quiet and memoization to resume.
		name: "flap",
		s:    with(single, 24, goldenOptions(false), flap),
		rows: []string{"incidents.tsv"},
		memo: true, minReplayed: 2, invalidates: true,
	}, {
		name: "sharded-flap",
		s:    with(sharded, 4, goldenOptions(false), flap),
		rows: []string{"flowlog.tsv", "c2_flowlog.tsv", "c3_flowlog.tsv", "c2_incidents.tsv"},
	}, {
		// Pod-local windows recorded and replayed under the gate-mode edge
		// (IterGate).
		name: "sharded-steady",
		s:    with(sharded, 8, goldenOptions(false), nil),
		memo: true, minReplayed: 2,
	}}
}

// goldenRun builds and runs s and returns every artifact it writes, keyed
// by file name: each hub exporter's file through WriteArtifacts, plus the
// root trace.json and the registry's metrics.json. It also returns the
// memo recorders' summed stats.
func goldenRun(t *testing.T, s Scenario) (map[string][]byte, MemoStats) {
	t.Helper()
	r, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if st := r.ShardedTrainer; st != nil {
		if st.Rounds != s.Iterations {
			t.Fatalf("completed %d cross-pod sync rounds, want %d", st.Rounds, s.Iterations)
		}
		if st.FirstErr != nil {
			t.Fatalf("cross-pod sync error: %v", st.FirstErr)
		}
		for pod, tr := range st.Trainers {
			if tr.FirstErr != nil {
				t.Fatalf("pod %d sync error: %v", pod, tr.FirstErr)
			}
		}
	}

	dir := t.TempDir()
	if _, err := r.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "prof.") {
			continue
		}
		if out[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	var trace, metrics bytes.Buffer
	if _, err := r.Hub.Tracer.WriteTo(&trace); err != nil {
		t.Fatal(err)
	}
	if err := r.Hub.Registry.WriteJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	out["trace.json"] = trace.Bytes()
	out["metrics.json"] = metrics.Bytes()

	prefixes := []string{""}
	if r.Sharded != nil {
		for p := range r.Sharded.Pods {
			prefixes = append(prefixes, fmt.Sprintf("c%d_", p+2))
		}
	}
	for _, prefix := range prefixes {
		for _, name := range goldenArtifactNames {
			if _, ok := out[prefix+name]; !ok && (s.Telemetry.Prof || name != "flight.tsv") {
				t.Fatalf("run wrote no %s%s", prefix, name)
			}
		}
	}

	var stats MemoStats
	for _, c := range r.clusters() {
		if rec := MemoRecorderOf(c); rec != nil {
			st := rec.Stats()
			stats.Hits += st.Hits
			stats.Misses += st.Misses
			stats.Replayed += st.Replayed
			stats.Blocked += st.Blocked
			stats.Invalidations += st.Invalidations
		}
	}
	return out, stats
}

// withTelemetry returns s with a copy of its telemetry options edited.
func withTelemetry(s Scenario, edit func(*TelemetryOptions)) Scenario {
	opt := *s.Telemetry
	edit(&opt)
	s.Telemetry = &opt
	return s
}

// firstDivergence returns the first line number (1-based) where a and b
// differ, with the two offending lines, or 0 if the byte streams match.
func firstDivergence(a, b []byte) (line int, la, lb string) {
	if bytes.Equal(a, b) {
		return 0, "", ""
	}
	as := strings.Split(string(a), "\n")
	bs := strings.Split(string(b), "\n")
	n := len(as)
	if len(bs) > n {
		n = len(bs)
	}
	for i := 0; i < n; i++ {
		var x, y string
		if i < len(as) {
			x = as[i]
		}
		if i < len(bs) {
			y = bs[i]
		}
		if x != y {
			return i + 1, x, y
		}
	}
	// Byte difference without a line difference (e.g. trailing newline).
	return n, "", ""
}

// diffArtifacts reports every artifact that differs between runs a and b,
// or that only one of them wrote, unless skip holds for its name. A
// failure prints the first divergent line, which almost always
// fingerprints the culprit (a map iteration, a wall-clock read, a global
// RNG draw) directly.
func diffArtifacts(t *testing.T, a, b map[string][]byte, labelA, labelB string, skip func(name string) bool) {
	t.Helper()
	var names []string
	for n := range a {
		names = append(names, n)
	}
	for n := range b {
		if _, ok := a[n]; !ok {
			names = append(names, n)
		}
	}
	slices.Sort(names)
	for _, n := range names {
		if skip != nil && skip(n) {
			continue
		}
		if line, x, y := firstDivergence(a[n], b[n]); line != 0 {
			t.Errorf("%s diverges between %s and %s at line %d:\n  %s: %s\n  %s: %s",
				n, labelA, labelB, line, labelA, x, labelB, y)
		}
	}
}

// checkRows fails t unless every listed artifact holds a record.
func checkRows(t *testing.T, out map[string][]byte, names []string) {
	t.Helper()
	for _, n := range names {
		if bytes.Count(out[n], []byte("\n")) < 2 {
			t.Errorf("%s has no records; the comparison would be vacuous", n)
		}
	}
}

// TestGoldenDeterminism is the repo's determinism gate: two runs of the
// same scenario must write byte-identical artifacts.
func TestGoldenDeterminism(t *testing.T) {
	for _, c := range goldenCases() {
		if !c.repeat {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			run1, _ := goldenRun(t, c.s)
			run2, _ := goldenRun(t, c.s)
			checkRows(t, run1, c.rows)
			diffArtifacts(t, run1, run2, "run1", "run2", nil)
		})
	}
}

// TestGoldenDeterminismMemo is the memoization differential gate: a run
// that fast-forwards iterations from recorded windows, re-delivering their
// fabric events to the flow log, in-band collector, health monitor and
// flight recorder alike, must write artifacts byte-identical to the run
// that simulates every one — metrics.json included, bar its memo_* rows,
// which only the memo-on registry registers.
func TestGoldenDeterminismMemo(t *testing.T) {
	for _, c := range goldenCases() {
		if !c.memo {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			off, _ := goldenRun(t, c.s)
			on, stats := goldenRun(t, withTelemetry(c.s, func(o *TelemetryOptions) { o.Memo = true }))
			checkRows(t, on, c.rows)
			if stats.Replayed < c.minReplayed {
				t.Errorf("replayed %d iterations, want at least %d (hits=%d misses=%d blocked=%d invalidations=%d)",
					stats.Replayed, c.minReplayed, stats.Hits, stats.Misses, stats.Blocked, stats.Invalidations)
			}
			if c.invalidates && stats.Invalidations == 0 {
				t.Error("link flap caused no memo invalidation; the cache survived a fabric transition")
			}
			off["metrics.json"], on["metrics.json"] = dropMemoRows(off["metrics.json"]), dropMemoRows(on["metrics.json"])
			diffArtifacts(t, off, on, "memo-off", "memo-on", nil)
		})
	}
}

// dropMemoRows returns the lines of a metrics.json export whose metric name
// holds no "memo_", under any cluster prefix.
func dropMemoRows(metrics []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(metrics, []byte("\n")) {
		if name, _, _ := bytes.Cut(line, []byte(":")); !bytes.Contains(name, []byte("memo_")) {
			out = append(out, line...)
		}
	}
	return out
}

// TestGoldenDeterminismSharded is the sharded engine's gate: a multi-pod
// run executed serially (one worker) and with its shard windows fanned out
// over NumCPU goroutines must write byte-identical artifacts on every
// domain, including the folded metrics registry, with memoization off
// and, where the case is memo-checked, on with worker-independent replay
// counts.
func TestGoldenDeterminismSharded(t *testing.T) {
	for _, c := range goldenCases() {
		if c.s.HPN.Pods == 1 {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			memoModes := []bool{false}
			if c.memo {
				memoModes = append(memoModes, true)
			}
			for _, on := range memoModes {
				s := withTelemetry(c.s, func(o *TelemetryOptions) { o.Memo = on })
				serial, stats1 := goldenRun(t, s)
				s.Workers = 0
				par, statsN := goldenRun(t, s)
				checkRows(t, serial, c.rows)
				if statsN.Replayed != stats1.Replayed {
					t.Errorf("replay count depends on workers: %d at workers=1, %d at workers=%d",
						stats1.Replayed, statsN.Replayed, runtime.NumCPU())
				}
				diffArtifacts(t, serial, par, fmt.Sprintf("memo=%v workers=1", on),
					fmt.Sprintf("workers=%d", runtime.NumCPU()), nil)
			}
		})
	}
}

// TestGoldenDeterminismProfOff proves the profiler never perturbs a run:
// every artifact other than its own (flight rings, prof.*) matches the
// same scenario run with profiling off.
func TestGoldenDeterminismProfOff(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			on, _ := goldenRun(t, c.s)
			off, _ := goldenRun(t, withTelemetry(c.s, func(o *TelemetryOptions) { o.Prof = false }))
			diffArtifacts(t, on, off, "prof-on", "prof-off", func(n string) bool { return strings.HasSuffix(n, "flight.tsv") })
		})
	}
}

// TestGoldenDeterminismDistinctFailures makes sure the gate is not
// trivially green: moving the injected fault must change the artifacts,
// proving the byte comparison actually covers failure handling. The flow
// log is checked as well as the trace, which would differ on the
// injector's own instant alone.
func TestGoldenDeterminismDistinctFailures(t *testing.T) {
	c := goldenCases()[0]
	a, _ := goldenRun(t, c.s)
	c.s.Faults = []LinkFault{{FailAt: c.s.Faults[0].FailAt + 30*sim.Millisecond}}
	b, _ := goldenRun(t, c.s)
	for _, name := range []string{"trace.json", "flowlog.tsv"} {
		if bytes.Equal(a[name], b[name]) {
			t.Fatalf("%s identical across different injected failures; the comparison is vacuous", name)
		}
	}
}

// TestShardedSchedulingPermutations is the scheduling property test: under
// every GOMAXPROCS in {1, 2, 8} and worker count in {2, 8}, the sharded
// run's artifacts must equal the serial reference byte for byte. Run with
// -race, this also proves the windows share no unsynchronized state.
func TestShardedSchedulingPermutations(t *testing.T) {
	var s Scenario
	for _, c := range goldenCases() {
		if c.name == "sharded-steady" {
			s = c.s
		}
	}
	s.Iterations = 3
	ref, _ := goldenRun(t, s)
	for _, procs := range []int{1, 2, 8} {
		for _, workers := range []int{2, 8} {
			t.Run(fmt.Sprintf("procs=%d/workers=%d", procs, workers), func(t *testing.T) {
				old := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(old)
				s.Workers = workers
				got, _ := goldenRun(t, s)
				diffArtifacts(t, ref, got, "serial", "permuted", nil)
			})
		}
	}
}
