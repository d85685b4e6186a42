package hpn

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
)

// jsonMetricSum is MetricSum by way of the JSON export: parse the flat
// name->value object and sum the matching names in sorted order.
func jsonMetricSum(t *testing.T, hub *TelemetryHub, suffix string) float64 {
	t.Helper()
	var b strings.Builder
	if err := hub.Registry.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var metrics map[string]float64
	if err := json.Unmarshal([]byte(b.String()), &metrics); err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range metrics {
		if strings.HasSuffix(name, suffix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var total float64
	for _, name := range names {
		total += metrics[name]
	}
	return total
}

// MetricSum over counters, a gauge and a flattened histogram is bitwise the
// sum of the matching rows of the JSON export, in the same order.
func TestMetricSumMatchesJSONExport(t *testing.T) {
	hub := NewTelemetryHub(TelemetryOptions{})
	reg := hub.Registry
	// Addends whose sum depends on the order they are added in.
	for i, v := range []float64{0.1, 1e16, 0.2, -1e16, 0.3, 1.0 / 3} {
		reg.Gauge(string(rune('a'+i))+"_x_total", "", func() float64 { return v })
		reg.Gauge("c2_"+string(rune('a'+i))+"_x_total", "", func() float64 { return v * 7 })
	}
	c := reg.Counter("y_x_total", "")
	c.Inc()
	c.Inc()
	h := reg.Histogram("lat_x", "", []float64{0.5, 1, 2})
	for _, ns := range []int64{1e8, 7e8, 7e8, 13e8, 3_141_590_000} {
		h.Observe(ns)
	}
	for _, suffix := range []string{"", "_total", "x_total", "_sum", "_count", "le_1", "_bucket_le_2", "nothing"} {
		got, want := MetricSum(hub, suffix), jsonMetricSum(t, hub, suffix)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("MetricSum(%q) = %v, the JSON export sums to %v", suffix, got, want)
		}
	}
	if got := MetricSum(hub, "lat_x_count"); got != 5 {
		t.Errorf("histogram count row: got %v, want 5", got)
	}
	if got := MetricSum(nil, ""); got != 0 {
		t.Errorf("MetricSum without a hub = %v, want 0", got)
	}
}

// On a sharded run every pod writes through a shard hub of its own, so
// the warnings must count the drops of each pod's tracer and in-band
// collector, not only the global domain's.
func TestOverflowWarningsCountShardDrops(t *testing.T) {
	cfg := MultiPodHPN(2, 1, 8, 16)
	opt := TelemetryOptions{Trace: true, MaxTraceEvents: 100, Inband: true, InbandMax: 10}
	r, err := Scenario{HPN: &cfg, Model: LLaMa13B, TP: 8, PP: 1, Hosts: 8, Iterations: 2,
		Workers: 1, Telemetry: &opt}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	records, podRecords := 0, 0
	for i, c := range r.clusters() {
		records += c.Net.Inband().Dropped()
		if i > 0 {
			podRecords += c.Net.Inband().Dropped()
		}
	}
	events := 0
	for _, h := range r.Hub.Hubs() {
		events += h.Tracer.Dropped()
	}
	if podRecords == 0 || events == r.Hub.Tracer.Dropped() {
		t.Fatalf("the pods dropped nothing (records %d, events %d of which %d global): the case tests nothing",
			podRecords, events, r.Hub.Tracer.Dropped())
	}
	want := []string{
		fmt.Sprintf("warning: trace buffer dropped %d events (cap reached); the trace under-reports — raise MaxTraceEvents", events),
		fmt.Sprintf("warning: in-band collectors dropped %d per-hop records (cap reached); inband.tsv under-reports — raise InbandMax", records),
	}
	if got := OverflowWarnings(r.Hub); !slices.Equal(got, want) {
		t.Errorf("OverflowWarnings = %q, want %q", got, want)
	}
}
