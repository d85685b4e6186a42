package hpn

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"hpn/internal/sim"
)

// goldenArtifactNames lists the artifacts the determinism contract covers,
// in comparison order.
var goldenArtifactNames = []string{
	"flowlog.tsv", "trace.json", "inband.tsv", "inband.json",
	"incidents.tsv", "incidents.json", "flight.tsv",
}

// goldenArtifacts runs one fully instrumented training simulation — small
// HPN cluster, telemetry hub attached, flow log, in-band path telemetry
// and the online health monitor on, a cable failure injected mid-run — and
// returns the serialized artifacts whose bytes the determinism contract
// covers: the flow-log TSV, the Chrome trace JSON, the in-band per-hop
// TSV/JSON, the health monitor's incidents TSV/JSON and the flight
// recorder's TSV. Everything that
// could perturb the output (placement, collective schedules, retransmits
// after the failure, telemetry emission order, path-epoch flushes on
// reroute, detector sweeps) is exercised on purpose.
func goldenArtifacts(t *testing.T) map[string][]byte {
	t.Helper()
	opt := DefaultTelemetryOptions()
	opt.Inband = true
	opt.Health = true
	// Profiling on, deliberately: the golden gate proves the profiler and
	// flight recorder never perturb the byte streams, and flight.tsv itself
	// joins the compared set (wall-carrying prof.tsv/json stay out).
	opt.Prof = true
	hub := NewTelemetryHub(opt)
	c, err := NewHPN(SmallHPN(1, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTelemetry(hub)
	c.Net.EnableFlowLog()

	hosts, err := c.PlaceJob(8)
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewJob(LLaMa13B, Parallelism{TP: 8, PP: 1, DP: 8}, hosts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(c, job)
	if err != nil {
		t.Fatal(err)
	}
	// Take one access cable down mid-run so failure handling and the
	// resulting reroutes are part of the replayed byte stream too.
	c.Eng.ScheduleAt(50*sim.Millisecond, func() {
		c.Net.FailCable(c.Topo.AccessLink(0, 0, 0))
	})
	if err := tr.Start(2); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	if tr.Iterations != 2 {
		t.Fatalf("completed %d iterations, want 2", tr.Iterations)
	}

	m := HealthMonitorOf(c)
	if m == nil {
		t.Fatal("health monitor not attached despite Options.Health")
	}

	out := map[string][]byte{}
	capture := func(name string, write func(w io.Writer) error) {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
		out[name] = b.Bytes()
	}
	capture("flowlog.tsv", c.Net.WriteFlowLog)
	capture("trace.json", func(w io.Writer) error { _, err := hub.Tracer.WriteTo(w); return err })
	capture("inband.tsv", c.Net.Inband().WriteTSV)
	capture("inband.json", c.Net.Inband().WriteJSON)
	capture("incidents.tsv", m.WriteTSV)
	capture("incidents.json", m.WriteJSON)
	capture("flight.tsv", hub.Flight.WriteTSV)
	return out
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

// TestGoldenDeterminism is the repo's determinism gate: two runs with the
// same seed and full telemetry must produce byte-identical flow-log TSV,
// trace JSON, in-band per-hop TSV/JSON, and health incidents TSV/JSON. A
// failure prints the first divergent line of the offending artifact, which
// almost always fingerprints the culprit (a map iteration, a wall-clock
// read, a global RNG draw) directly.
func TestGoldenDeterminism(t *testing.T) {
	run1 := goldenArtifacts(t)
	run2 := goldenArtifacts(t)

	if flow := run1["flowlog.tsv"]; len(flow) == 0 || bytes.Count(flow, []byte("\n")) < 2 {
		t.Fatal("flow log is empty; the run recorded no flows")
	}
	if len(run1["trace.json"]) == 0 {
		t.Fatal("trace is empty; the run emitted no events")
	}
	if bytes.Count(run1["inband.tsv"], []byte("\n")) < 2 {
		t.Fatal("in-band TSV is empty; the run recorded no per-hop telemetry")
	}
	if bytes.Count(run1["incidents.tsv"], []byte("\n")) < 2 {
		t.Fatal("incidents TSV has no rows; the health monitor recorded nothing")
	}
	if bytes.Count(run1["flight.tsv"], []byte("\n")) < 2 {
		t.Fatal("flight TSV has no rows; the recorder captured no events around the incident")
	}

	for _, name := range goldenArtifactNames {
		if line, a, b := firstDivergence(run1[name], run2[name]); line != 0 {
			t.Errorf("%s diverges between identical runs at line %d:\n  run1: %s\n  run2: %s",
				name, line, a, b)
		}
	}
}

// memoArtifacts runs a steady-state training simulation with full
// instrumentation (flow log, trace, in-band, health) and iteration
// memoization on or off, returning the golden artifact set plus the memo
// recorder's stats. Periodic sampling is disabled on BOTH sides: the
// sampler's 10ms daemon tick would land inside every candidate window and
// block memoization, and the off side must run the identical configuration
// for the byte comparison to mean anything.
func memoArtifacts(t *testing.T, memoOn bool, iters int, tune ...func(c *Cluster)) (map[string][]byte, MemoStats) {
	t.Helper()
	opt := DefaultTelemetryOptions()
	opt.Inband = true
	opt.Health = true
	opt.SampleInterval = 0
	opt.Memo = memoOn
	// Profiling stays on through the memo gates too: phase timing must not
	// perturb recorded windows or replay, and replay re-delivers the fabric
	// events the flight recorder notes, so flight.tsv must match as well.
	opt.Prof = true
	hub := NewTelemetryHub(opt)
	c, err := NewHPN(SmallHPN(1, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTelemetry(hub)
	c.Net.EnableFlowLog()
	for _, fn := range tune {
		fn(c)
	}

	hosts, err := c.PlaceJob(8)
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewJob(LLaMa13B, Parallelism{TP: 8, PP: 1, DP: 8}, hosts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(c, job)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(iters); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	if tr.Iterations != iters {
		t.Fatalf("completed %d iterations, want %d", tr.Iterations, iters)
	}

	m := HealthMonitorOf(c)
	if m == nil {
		t.Fatal("health monitor not attached despite Options.Health")
	}
	var stats MemoStats
	if rec := MemoRecorderOf(c); rec != nil {
		stats = rec.Stats()
	} else if memoOn {
		t.Fatal("memo recorder not attached despite Options.Memo")
	}

	out := map[string][]byte{}
	capture := func(name string, write func(w io.Writer) error) {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
		out[name] = b.Bytes()
	}
	capture("flowlog.tsv", c.Net.WriteFlowLog)
	capture("trace.json", func(w io.Writer) error { _, err := hub.Tracer.WriteTo(w); return err })
	capture("inband.tsv", c.Net.Inband().WriteTSV)
	capture("inband.json", c.Net.Inband().WriteJSON)
	capture("incidents.tsv", m.WriteTSV)
	capture("incidents.json", m.WriteJSON)
	capture("flight.tsv", hub.Flight.WriteTSV)
	return out, stats
}

// TestGoldenDeterminismMemo is the memoization differential gate: a run
// that fast-forwards most of its iterations from the recorded window must
// produce artifacts byte-identical to the run that simulates every one.
func TestGoldenDeterminismMemo(t *testing.T) {
	const iters = 8
	off, _ := memoArtifacts(t, false, iters)
	on, stats := memoArtifacts(t, true, iters)

	if stats.Replayed < iters-3 {
		t.Errorf("replayed %d of %d iterations, want at least %d (hits=%d misses=%d blocked=%d)",
			stats.Replayed, iters, iters-3, stats.Hits, stats.Misses, stats.Blocked)
	}
	if flow := off["flowlog.tsv"]; len(flow) == 0 || bytes.Count(flow, []byte("\n")) < 2 {
		t.Fatal("flow log is empty; the run recorded no flows")
	}
	for _, name := range goldenArtifactNames {
		if line, a, b := firstDivergence(off[name], on[name]); line != 0 {
			t.Errorf("%s diverges between memo-off and memo-on at line %d:\n  off: %s\n  on:  %s",
				name, line, a, b)
		}
	}
}

// TestGoldenDeterminismMemoInvalidation injects a mid-run link flap into a
// memoized run: the failure must drop the cache (invalidation), the flap
// handling must re-simulate, memoization must re-warm afterwards, and the
// artifacts must still match the memo-off run with the identical flap.
// Iterations run ~1s of virtual time each and the flap detector keeps its
// 10s window armed after the transition, so the run is long enough for the
// detectors to go quiet and memoization to resume.
func TestGoldenDeterminismMemoInvalidation(t *testing.T) {
	const iters = 24
	flap := func(c *Cluster) {
		lk := c.Topo.AccessLink(0, 0, 0)
		c.Eng.ScheduleAt(50*sim.Millisecond, func() { c.Net.FailCable(lk) })
		c.Eng.ScheduleAt(120*sim.Millisecond, func() { c.Net.RecoverCable(lk) })
	}
	off, _ := memoArtifacts(t, false, iters, flap)
	on, stats := memoArtifacts(t, true, iters, flap)

	if stats.Invalidations == 0 {
		t.Error("link flap caused no memo invalidation; the cache survived a fabric transition")
	}
	if stats.Replayed < 2 {
		t.Errorf("replayed only %d iterations around the flap, want memoization to re-warm (hits=%d misses=%d blocked=%d invalidations=%d)",
			stats.Replayed, stats.Hits, stats.Misses, stats.Blocked, stats.Invalidations)
	}
	if bytes.Count(on["incidents.tsv"], []byte("\n")) < 2 {
		t.Fatal("incidents TSV has no rows; the flap was not detected")
	}
	for _, name := range goldenArtifactNames {
		if line, a, b := firstDivergence(off[name], on[name]); line != 0 {
			t.Errorf("%s diverges between memo-off and memo-on under a link flap at line %d:\n  off: %s\n  on:  %s",
				name, line, a, b)
		}
	}
}

// TestGoldenDeterminismDistinctFailures makes sure the gate is not
// trivially green: changing the injected fault must change the artifacts,
// proving the byte comparison actually covers failure handling.
func TestGoldenDeterminismDistinctFailures(t *testing.T) {
	run := func(port int) []byte {
		hub := NewTelemetryHub(DefaultTelemetryOptions())
		c, err := NewHPN(SmallHPN(1, 8, 8))
		if err != nil {
			t.Fatal(err)
		}
		c.EnableTelemetry(hub)
		c.Net.EnableFlowLog()
		hosts, err := c.PlaceJob(8)
		if err != nil {
			t.Fatal(err)
		}
		job, err := NewJob(LLaMa13B, Parallelism{TP: 8, PP: 1, DP: 8}, hosts)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTrainer(c, job)
		if err != nil {
			t.Fatal(err)
		}
		fail := c.Topo.AccessLink(0, 0, port)
		c.Eng.ScheduleAt(50*sim.Millisecond, func() { c.Net.FailCable(fail) })
		if err := tr.Start(2); err != nil {
			t.Fatal(err)
		}
		c.Eng.Run()
		var b bytes.Buffer
		if _, err := hub.Tracer.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a := run(0)
	b := run(1)
	if bytes.Equal(a, b) {
		t.Fatal("traces identical across different injected failures; the comparison is vacuous")
	}
}
