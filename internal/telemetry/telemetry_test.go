package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// traceDoc mirrors the Chrome trace-event JSON container for validation.
type traceDoc struct {
	DisplayTimeUnit string           `json:"displayTimeUnit"`
	TraceEvents     []map[string]any `json:"traceEvents"`
}

func parseTrace(t *testing.T, tr *Tracer) traceDoc {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	return doc
}

func TestTracerEmitsValidChromeTraceJSON(t *testing.T) {
	tr := NewTracer(0)
	tr.NameProcess("cluster")
	tr.NameThread(TidNetsim, "netsim")
	tr.Complete(1234, 5678, "netsim", "flow", TidNetsim,
		Int("id", 7), Float("bytes", 1.5e9),
		Str("src", `host "0"`), Bool("ok", true))
	tr.Instant(2000, "netsim", "link_down", TidNetsim, Int("link", 3))
	tr.Counter(3000, "active_flows", 42)

	doc := parseTrace(t, tr)
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5", len(doc.TraceEvents))
	}
	span := doc.TraceEvents[2]
	if span["ph"] != "X" || span["cat"] != "netsim" || span["name"] != "flow" {
		t.Errorf("span fields wrong: %v", span)
	}
	// 1234ns renders as 1.234 microseconds.
	if span["ts"] != 1.234 {
		t.Errorf("ts = %v, want 1.234", span["ts"])
	}
	if span["dur"] != 5.678 {
		t.Errorf("dur = %v, want 5.678", span["dur"])
	}
	args := span["args"].(map[string]any)
	if args["src"] != `host "0"` {
		t.Errorf("quoted arg survived as %q", args["src"])
	}
	inst := doc.TraceEvents[3]
	if inst["ph"] != "i" || inst["s"] != "t" {
		t.Errorf("instant fields wrong: %v", inst)
	}
	ctr := doc.TraceEvents[4]
	if ctr["ph"] != "C" || ctr["args"].(map[string]any)["value"] != 42.0 {
		t.Errorf("counter fields wrong: %v", ctr)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Complete(0, 1, "c", "n", 1)
	tr.Instant(0, "c", "n", 1)
	tr.Counter(0, "n", 1)
	tr.NameProcess("p")
	tr.NameThread(1, "t")
	if tr.Process("x") != nil {
		t.Error("nil.Process should stay nil")
	}
	if tr.Events() != 0 || tr.Dropped() != 0 {
		t.Error("nil tracer should report zeros")
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatalf("nil WriteTo: %v", err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Errorf("nil trace has %d events", len(doc.TraceEvents))
	}
}

func TestTracerDeterministicOutput(t *testing.T) {
	build := func() []byte {
		tr := NewTracer(0)
		p2 := tr.Process("c2")
		tr.Complete(10, 20, "a", "one", 1, Float("v", 0.1))
		p2.Instant(30, "b", "two", 2)
		tr.Counter(40, "c", 3.14159)
		var buf bytes.Buffer
		tr.WriteTo(&buf)
		return buf.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Error("identical emission sequences produced different bytes")
	}
}

func TestTracerMaxEventsDrops(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 10; i++ {
		tr.Instant(int64(i), "c", "e", 1)
	}
	if tr.Events() != 3 {
		t.Errorf("events = %d, want 3", tr.Events())
	}
	if tr.Dropped() != 7 {
		t.Errorf("dropped = %d, want 7", tr.Dropped())
	}
	if n := len(parseTrace(t, tr).TraceEvents); n != 3 {
		t.Errorf("serialized %d events, want 3", n)
	}
}

func TestTracerProcessViewsShareBuffer(t *testing.T) {
	tr := NewTracer(0)
	a := tr.Process("alpha")
	b := tr.Process("beta")
	a.Instant(1, "c", "ea", 1)
	b.Instant(2, "c", "eb", 1)
	if a.pid == b.pid {
		t.Fatalf("views share pid %d", a.pid)
	}
	doc := parseTrace(t, tr)
	pids := map[float64]bool{}
	for _, e := range doc.TraceEvents {
		pids[e["pid"].(float64)] = true
	}
	if len(pids) < 2 {
		t.Errorf("expected >=2 pids in trace, got %v", pids)
	}
}

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("flows_total", "completed flows")
	c.Inc()
	c.Inc()
	c.Inc()
	if c.Value() != 3 {
		t.Errorf("counter = %v, want 3", c.Value())
	}
	if r.Counter("flows_total", "other help") != c {
		t.Error("re-registering a counter should return the original")
	}
	r.Gauge("active", "live flows", func() float64 { return 5 })

	var prom strings.Builder
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, want := range []string{
		"# HELP flows_total completed flows",
		"# TYPE flows_total counter",
		"flows_total 3",
		"# TYPE active gauge",
		"active 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// "active" sorts before "flows_total".
	if strings.Index(out, "active 5") > strings.Index(out, "flows_total 3") {
		t.Error("metrics not sorted by name")
	}

	var js strings.Builder
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	if err := json.Unmarshal([]byte(js.String()), &m); err != nil {
		t.Fatalf("metrics JSON invalid: %v\n%s", err, js.String())
	}
	if m["flows_total"] != 3 || m["active"] != 5 {
		t.Errorf("metrics JSON = %v", m)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	c.Inc() // nil counter
	if c.Value() != 0 {
		t.Error("nil counter should stay 0")
	}
	r.Gauge("g", "", func() float64 { return 1 })
	r.RegisterExporter("e", func(io.Writer) error { return nil })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Error(err)
	}
	if names := r.ExporterNames(); names != nil {
		t.Errorf("nil registry exporters = %v", names)
	}
}

func TestRegistryExporters(t *testing.T) {
	r := NewRegistry()
	r.RegisterExporter("b.tsv", func(w io.Writer) error {
		_, err := w.Write([]byte("bee"))
		return err
	})
	r.RegisterExporter("a.csv", func(w io.Writer) error {
		_, err := w.Write([]byte("ay"))
		return err
	})
	if got := r.ExporterNames(); len(got) != 2 || got[0] != "b.tsv" || got[1] != "a.csv" {
		t.Errorf("exporter order = %v, want registration order", got)
	}
	var buf bytes.Buffer
	if err := r.Export("b.tsv", &buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "bee" {
		t.Errorf("exported %q", buf.String())
	}
	if err := r.Export("missing", &buf); err == nil {
		t.Error("unknown exporter should error")
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"tor-1/up0/util_bps": "tor_1_up0_util_bps",
		"9lives":             "_lives",
		"ok_name:sub":        "ok_name:sub",
	}
	for in, want := range cases {
		if got := string(appendSanitized(nil, in)); got != want {
			t.Errorf("appendSanitized(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSamplerSnapshotsAndBounds(t *testing.T) {
	s := NewSampler(1000, 3)
	v := 0.0
	p := s.Track("val", func() float64 { v++; return v })
	for i := 0; i < 10; i++ {
		s.Sample(int64(i) * 1000)
	}
	if p.Ring.Len() != 3 {
		t.Fatalf("ring holds %d, want 3", p.Ring.Len())
	}
	// Most recent window: samples 8, 9, 10.
	for i := 0; i < 3; i++ {
		if got := p.Ring.At(i).V; got != float64(8+i) {
			t.Errorf("At(%d).V = %v, want %v", i, got, float64(8+i))
		}
	}
	var csv strings.Builder
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "series,t_seconds,value\n") {
		t.Errorf("csv header wrong: %q", csv.String())
	}
	if !strings.Contains(csv.String(), "val,") {
		t.Errorf("csv missing series rows: %q", csv.String())
	}
}

func TestSamplerNilSafe(t *testing.T) {
	var s *Sampler
	s.AttachTracer(nil)
	if s.Track("x", func() float64 { return 0 }) != nil {
		t.Error("nil sampler Track should return nil")
	}
	s.Sample(0)
	if s.Probes() != nil {
		t.Error("nil sampler should have no probes")
	}
}

func TestSamplerMirrorsIntoTrace(t *testing.T) {
	tr := NewTracer(0)
	s := NewSampler(1000, 0)
	s.AttachTracer(tr)
	s.Track("util", func() float64 { return 7 })
	s.Sample(5000)
	doc := parseTrace(t, tr)
	if len(doc.TraceEvents) != 1 {
		t.Fatalf("got %d trace events, want 1 counter", len(doc.TraceEvents))
	}
	e := doc.TraceEvents[0]
	if e["ph"] != "C" || e["name"] != "util" {
		t.Errorf("mirrored event wrong: %v", e)
	}
}

func TestHubJoinClusterPrefixes(t *testing.T) {
	h := NewHub(DefaultOptions())
	p1, s1 := h.JoinCluster()
	p2, s2 := h.JoinCluster()
	if p1 != "" {
		t.Errorf("first cluster prefix = %q, want empty", p1)
	}
	if p2 != "c2_" {
		t.Errorf("second cluster prefix = %q, want c2_", p2)
	}
	if s1 == nil || s2 == nil || s1 == s2 {
		t.Error("each cluster should get its own sampler")
	}
	if s1 != nil && s1.RingCap <= 0 {
		t.Error("the hub's sampler keeps unbounded series")
	}
	if h.Tracer == nil {
		t.Error("default options should enable tracing")
	}
}

func TestHubDisabledSurfaces(t *testing.T) {
	h := NewHub(Options{}) // everything off
	if h.Tracer != nil {
		t.Error("tracing disabled but Tracer non-nil")
	}
	if _, smp := h.JoinCluster(); smp != nil {
		t.Error("sampling disabled but sampler non-nil")
	}
}
