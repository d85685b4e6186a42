package hpn

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"

	"hpn/internal/sim"
)

// shardedGoldenNames lists the per-domain artifacts the sharded determinism
// contract covers. Every domain (global + each pod) contributes its own
// flow log, trace, in-band telemetry, incidents and flight ring under a
// "g/" or "podN/" key.
func shardedGoldenNames(pods int) []string {
	var names []string
	for _, n := range goldenArtifactNames {
		names = append(names, "g/"+n)
	}
	for p := 0; p < pods; p++ {
		for _, n := range goldenArtifactNames {
			names = append(names, fmt.Sprintf("pod%d/%s", p, n))
		}
	}
	names = append(names, "metrics.json")
	return names
}

// shardedArtifacts runs one fully instrumented sharded training simulation —
// a 2-pod HPN fabric, per-pod engines under the windowed coordinator, full
// telemetry (flow logs, traces, in-band, health, profiler) on every domain,
// a cable failure injected into pod 0 — and returns every domain's artifact
// bytes. The memo-replay and failure paths are exercised on purpose; the
// worker count is the variable under test.
func shardedArtifacts(t *testing.T, workers, iters int, memoOn, flap bool) (map[string][]byte, MemoStats) {
	t.Helper()
	opt := DefaultTelemetryOptions()
	opt.Inband = true
	opt.Health = true
	opt.Prof = true
	// No periodic sampler: its 10ms tick is a daemon, which never fires on
	// a quiesced shard (documented sharded semantics) and blocks memoization.
	opt.SampleInterval = 0
	opt.Memo = memoOn
	hub := NewTelemetryHub(opt)
	sc, err := NewShardedHPN(MultiPodHPN(2, 1, 4, 2), hub)
	if err != nil {
		t.Fatal(err)
	}
	sc.SetWorkers(workers)
	sc.Global.Net.EnableFlowLog()
	for _, pc := range sc.Pods {
		pc.Net.EnableFlowLog()
	}
	st, err := NewShardedTrainer(sc, LLaMa13B, Parallelism{TP: 8, PP: 1, DP: 4})
	if err != nil {
		t.Fatal(err)
	}
	if flap {
		// The failed cable lives in pod 0, so the injection runs on pod 0's
		// engine — the owning domain — and the recovery follows mid-run.
		lk := sc.Topo.AccessLink(0, 0, 0)
		dom := sc.DomainFor(lk)
		dom.Eng.ScheduleAt(50*sim.Millisecond, func() { dom.Net.FailCable(lk) })
		dom.Eng.ScheduleAt(120*sim.Millisecond, func() { dom.Net.RecoverCable(lk) })
	}
	if err := st.Start(iters); err != nil {
		t.Fatal(err)
	}
	sc.Run()
	if got := st.Iterations(); got != iters {
		t.Fatalf("completed %d iterations, want %d", got, iters)
	}
	if st.Rounds != iters {
		t.Fatalf("completed %d cross-pod sync rounds, want %d", st.Rounds, iters)
	}
	if st.FirstErr != nil {
		t.Fatalf("cross-pod sync error: %v", st.FirstErr)
	}
	for pod, tr := range st.Trainers {
		if tr.FirstErr != nil {
			t.Fatalf("pod %d sync error: %v", pod, tr.FirstErr)
		}
	}

	var stats MemoStats
	if memoOn {
		for _, pc := range sc.Pods {
			rec := MemoRecorderOf(pc)
			if rec == nil {
				t.Fatal("memo recorder not attached to pod despite Options.Memo")
			}
			s := rec.Stats()
			stats.Hits += s.Hits
			stats.Misses += s.Misses
			stats.Replayed += s.Replayed
			stats.Blocked += s.Blocked
			stats.Invalidations += s.Invalidations
		}
	}

	out := map[string][]byte{}
	capture := func(name string, write func(w io.Writer) error) {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
		out[name] = b.Bytes()
	}
	captureDomain := func(key string, c *Cluster, h *TelemetryHub) {
		capture(key+"/flowlog.tsv", c.Net.WriteFlowLog)
		capture(key+"/trace.json", func(w io.Writer) error { _, err := h.Tracer.WriteTo(w); return err })
		capture(key+"/inband.tsv", c.Net.Inband().WriteTSV)
		capture(key+"/inband.json", c.Net.Inband().WriteJSON)
		m := HealthMonitorOf(c)
		if m == nil {
			t.Fatalf("health monitor not attached on %s", key)
		}
		capture(key+"/incidents.tsv", m.WriteTSV)
		capture(key+"/incidents.json", m.WriteJSON)
		capture(key+"/flight.tsv", h.Flight.WriteTSV)
	}
	captureDomain("g", sc.Global, hub)
	for p, pc := range sc.Pods {
		captureDomain(fmt.Sprintf("pod%d", p), pc, sc.PodHubs()[p])
	}
	// The folded registry: per-shard counters absorbed into the base in pod
	// order, so the ensemble totals must be worker-independent too. The
	// profiler's prof_* gauges are host wall/alloc measurements — published
	// as gauges precisely because they are not deterministic — so they are
	// stripped before comparison.
	capture("metrics.json", hub.Registry.WriteJSON)
	out["metrics.json"] = stripProfGauges(out["metrics.json"])
	return out, stats
}

// stripProfGauges drops the profiler's wall/alloc gauge lines from a
// metrics JSON dump, keeping every deterministic counter and count gauge.
func stripProfGauges(b []byte) []byte {
	var keep [][]byte
	for _, line := range bytes.Split(b, []byte("\n")) {
		if bytes.Contains(line, []byte(`"prof_`)) {
			continue
		}
		keep = append(keep, line)
	}
	return bytes.Join(keep, []byte("\n"))
}

// TestGoldenDeterminismSharded is the sharded determinism gate: the same
// instrumented multi-pod run executed serially (workers=1) and with the
// shard windows fanned out over several goroutines must produce
// byte-identical artifacts on every domain — flow logs, traces, in-band
// telemetry, incidents, flight rings and the folded metrics registry. A
// cable flap in pod 0 keeps failure handling inside the compared bytes.
func TestGoldenDeterminismSharded(t *testing.T) {
	const iters = 4
	serial, _ := shardedArtifacts(t, 1, iters, false, true)
	par, _ := shardedArtifacts(t, runtime.NumCPU(), iters, false, true)

	for _, key := range []string{"g/flowlog.tsv", "pod0/flowlog.tsv", "pod1/flowlog.tsv"} {
		if flow := serial[key]; len(flow) == 0 || bytes.Count(flow, []byte("\n")) < 2 {
			t.Fatalf("%s is empty; the domain recorded no flows", key)
		}
	}
	if bytes.Count(serial["pod0/incidents.tsv"], []byte("\n")) < 2 {
		t.Fatal("pod0 incidents TSV has no rows; the injected flap was not detected")
	}

	for _, name := range shardedGoldenNames(2) {
		if line, a, b := firstDivergence(serial[name], par[name]); line != 0 {
			t.Errorf("%s diverges between workers=1 and workers=%d at line %d:\n  serial:   %s\n  parallel: %s",
				name, runtime.NumCPU(), line, a, b)
		}
	}
}

// TestGoldenDeterminismShardedMemo crosses the sharded gate with iteration
// memoization: pod-local windows recorded and replayed under the gate-mode
// edge (IterGate) must leave every artifact byte-identical between worker
// counts, and the memo-on run must match the memo-off run on every
// artifact: replay re-delivers the recorded fabric events to the flow log,
// in-band collector, health monitor and flight recorder alike.
func TestGoldenDeterminismShardedMemo(t *testing.T) {
	const iters = 8
	off, _ := shardedArtifacts(t, 1, iters, false, false)
	on1, stats1 := shardedArtifacts(t, 1, iters, true, false)
	onN, statsN := shardedArtifacts(t, runtime.NumCPU(), iters, true, false)

	if stats1.Replayed < 2 {
		t.Errorf("replayed %d pod iterations, want >= 2 (hits=%d misses=%d blocked=%d)",
			stats1.Replayed, stats1.Hits, stats1.Misses, stats1.Blocked)
	}
	if statsN.Replayed != stats1.Replayed {
		t.Errorf("replay count depends on workers: %d at workers=1, %d at workers=N",
			stats1.Replayed, statsN.Replayed)
	}
	for _, name := range shardedGoldenNames(2) {
		if line, a, b := firstDivergence(on1[name], onN[name]); line != 0 {
			t.Errorf("%s diverges between memo-on workers=1 and workers=N at line %d:\n  w1: %s\n  wN: %s",
				name, line, a, b)
		}
	}
	for _, name := range shardedGoldenNames(2) {
		if name == "metrics.json" {
			// The memo-on registry adds memo_* counters the off run never
			// registers; the byte comparison only holds between same-config
			// runs (covered by the workers loop above).
			continue
		}
		if line, a, b := firstDivergence(off[name], on1[name]); line != 0 {
			t.Errorf("%s diverges between memo-off and memo-on at line %d:\n  off: %s\n  on:  %s",
				name, line, a, b)
		}
	}
}

// TestShardedSchedulingPermutations is the scheduling property test: under
// every GOMAXPROCS in {1, 2, 8} and worker count in {1, 2, 8}, the sharded
// run's artifacts must equal the serial reference byte for byte. Run with
// -race in CI (make test-parallel), this also proves the windows share no
// unsynchronized state.
func TestShardedSchedulingPermutations(t *testing.T) {
	const iters = 3
	ref, _ := shardedArtifacts(t, 1, iters, false, false)
	names := shardedGoldenNames(2)
	for _, procs := range []int{1, 2, 8} {
		for _, workers := range []int{2, 8} {
			t.Run(fmt.Sprintf("procs=%d/workers=%d", procs, workers), func(t *testing.T) {
				old := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(old)
				got, _ := shardedArtifacts(t, workers, iters, false, false)
				for _, name := range names {
					if line, a, b := firstDivergence(ref[name], got[name]); line != 0 {
						t.Errorf("%s diverges from the serial reference at line %d:\n  ref: %s\n  got: %s",
							name, line, a, b)
					}
				}
			})
		}
	}
}
