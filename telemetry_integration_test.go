package hpn

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// telemetryRun trains two iterations of LLaMa13B on a small healthy HPN
// fabric with default telemetry attached, and returns the serialized trace
// and Prometheus artifacts.
func telemetryRun(t *testing.T) (trace, prom []byte) {
	t.Helper()
	opt := DefaultTelemetryOptions()
	cfg := SmallHPN(1, 8, 8)
	r, err := Scenario{HPN: &cfg, Model: LLaMa13B, TP: 8, PP: 1, Hosts: 8, Iterations: 2, Telemetry: &opt}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}

	var tb, pb bytes.Buffer
	if _, err := r.Hub.Tracer.WriteTo(&tb); err != nil {
		t.Fatal(err)
	}
	if err := r.Hub.Registry.WritePrometheus(&pb); err != nil {
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

	// The sampler dump is the run's samples.csv artifact: one
	// series,t_seconds,value row per retained sample.
	var buf bytes.Buffer
	if err := hub.Registry.Export("samples.csv", &buf); err != nil {
		t.Fatalf("samples.csv exporter: %v (have %v)", err, hub.Registry.ExporterNames())
	}
	rows := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if rows[0] != "series,t_seconds,value" {
		t.Fatalf("samples.csv header = %q", rows[0])
	}
	series := map[string]bool{}
	portSeries := 0
	for _, row := range rows[1:] {
		name, _, _ := strings.Cut(row, ",")
		if !series[name] && strings.Contains(name, "/up") {
			portSeries++
		}
		series[name] = true
	}
	if len(rows) == 1 {
		t.Error("sampler never fired during the run")
	}
	if portSeries == 0 {
		t.Error("no per-port ToR uplink series tracked")
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
	cfg := SmallHPN(1, 8, 8)
	r, err := Scenario{HPN: &cfg, Model: LLaMa13B, TP: 8, PP: 1, Hosts: 8, Iterations: iters, Telemetry: &opt}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	rec := MemoRecorderOf(r.Cluster)
	if rec == nil {
		t.Fatal("memo recorder not attached despite Options.Memo")
	}
	if st := rec.Stats(); st.Replayed < iters-4 {
		t.Fatalf("replayed %d of %d iterations (%+v): the sampler blocks memoization", st.Replayed, iters, st)
	}
}
