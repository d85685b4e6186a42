package hpn

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// telemetryRun builds a small HPN cluster with telemetry attached, trains a
// couple of iterations through a mid-run cable failure, and returns the
// serialized trace and Prometheus artifacts.
func telemetryRun(t *testing.T) (trace, prom []byte) {
	t.Helper()
	hub := NewTelemetryHub(DefaultTelemetryOptions())
	c, err := NewHPN(SmallHPN(1, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTelemetry(hub)

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
	if err := tr.Start(2); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	if tr.Iterations != 2 {
		t.Fatalf("completed %d iterations, want 2", tr.Iterations)
	}

	var tb, pb bytes.Buffer
	if _, err := hub.Tracer.WriteTo(&tb); err != nil {
		t.Fatal(err)
	}
	if err := hub.Registry.WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), pb.Bytes()
}

func TestTelemetryEndToEnd(t *testing.T) {
	trace, prom := telemetryRun(t)

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace is empty")
	}
	cats := map[string]bool{}
	phases := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if c, ok := e["cat"].(string); ok {
			cats[c] = true
		}
		if ph, ok := e["ph"].(string); ok {
			phases[ph] = true
		}
	}
	// The acceptance bar: spans from at least netsim, collective, and
	// workload, plus the engine's own dispatch track and counter samples.
	for _, want := range []string{"netsim", "collective", "workload", "sim"} {
		if !cats[want] {
			t.Errorf("trace has no %q events (cats: %v)", want, cats)
		}
	}
	for _, want := range []string{"X", "C", "M"} {
		if !phases[want] {
			t.Errorf("trace has no %q phase records", want)
		}
	}

	for _, want := range []string{
		"workload_iterations_total 2",
		"collective_ops_total",
		"collective_rounds_total",
		"netsim_flows_completed_total",
		"netsim_recomputes_total",
		"# TYPE netsim_active_flows gauge",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics output missing %q:\n%s", want, prom)
		}
	}
}

func TestTelemetryDeterministicAcrossRuns(t *testing.T) {
	trace1, prom1 := telemetryRun(t)
	trace2, prom2 := telemetryRun(t)
	if !bytes.Equal(trace1, trace2) {
		t.Error("same-seed runs produced different traces")
	}
	if !bytes.Equal(prom1, prom2) {
		t.Error("same-seed runs produced different metrics")
	}
}

// TestTelemetrySamplerSeries checks the engine-driven sampler actually
// collected bounded per-port and fabric-gauge series during the run.
func TestTelemetrySamplerSeries(t *testing.T) {
	opt := DefaultTelemetryOptions()
	// A single uncontended AllReduce completes in a few virtual
	// milliseconds; sample at 0.1ms so the run spans many ticks.
	opt.SampleInterval = 100_000
	hub := NewTelemetryHub(opt)
	c, err := NewHPN(SmallHPN(1, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTelemetry(hub)
	hosts, _ := c.PlaceJob(8)
	g, err := NewCollectiveGroup(c, c.CollectiveConfig(), hosts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AllReduce(256 << 20); err != nil {
		t.Fatal(err)
	}

	samplers := hub.Samplers()
	if len(samplers) != 1 {
		t.Fatalf("hub has %d samplers, want 1", len(samplers))
	}
	probes := samplers[0].Probes()
	if len(probes) == 0 {
		t.Fatal("sampler registered no probes")
	}
	var portSeries, samples int
	for _, p := range probes {
		samples += p.Ring.Len()
		if strings.Contains(p.Name, "/up") {
			portSeries++
		}
		if cap := hub.Opt.RingCap; cap > 0 && p.Ring.Len() > cap {
			t.Errorf("probe %s holds %d > ring cap %d", p.Name, p.Ring.Len(), cap)
		}
	}
	if portSeries == 0 {
		t.Error("no per-port ToR uplink series tracked")
	}
	if samples == 0 {
		t.Error("sampler never fired during the run")
	}

	// The sampler dump is registered as a run artifact.
	found := false
	for _, name := range hub.Registry.ExporterNames() {
		if name == "samples.csv" {
			found = true
		}
	}
	if !found {
		t.Errorf("samples.csv exporter not registered (have %v)", hub.Registry.ExporterNames())
	}
}

// Memo turns the periodic sampler off by itself. Built from the default
// options, whose 10ms sampler tick would otherwise land inside every
// iteration window and get each recording discarded, a memoized run still
// replays its steady state.
func TestMemoWithDefaultTelemetryOptionsReplays(t *testing.T) {
	const iters = 20
	opt := DefaultTelemetryOptions()
	opt.Memo = true
	hub := NewTelemetryHub(opt)
	c, err := NewHPN(SmallHPN(1, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTelemetry(hub)
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
	rec := MemoRecorderOf(c)
	if rec == nil {
		t.Fatal("memo recorder not attached despite Options.Memo")
	}
	if st := rec.Stats(); st.Replayed < iters-4 {
		t.Fatalf("replayed %d of %d iterations (%+v): the sampler blocks memoization", st.Replayed, iters, st)
	}
}
