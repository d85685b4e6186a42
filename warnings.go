package hpn

import "fmt"

// MetricSum sums every registry metric whose name ends in suffix across
// all clusters attached to the hub (cluster prefixes are c2_, c3_, ...
// past the first), histograms flattened as in the JSON export, in sorted
// name order. Returns 0 without a hub.
func MetricSum(hub *TelemetryHub, suffix string) float64 {
	if hub == nil {
		return 0
	}
	return hub.Registry.SumSuffix(suffix)
}

// OverflowWarnings reports every bounded collector on the hub and its
// shard hubs that hit its cap and silently dropped data: the trace-event
// rings (MaxTraceEvents) and the in-band per-hop collectors (InbandMax).
// One message per kind of overflowing collector, ready to print to
// stderr; empty means every artifact is complete. Runners (hpnsim,
// hpnbench) share this so the two CLIs can never drift on which overflows
// they surface.
func OverflowWarnings(hub *TelemetryHub) []string {
	if hub == nil {
		return nil
	}
	events, records := 0, 0.0
	for _, h := range hub.Hubs() {
		events += h.Tracer.Dropped()
		// A shard hub's in-band drop count is a gauge, which Registry.Absorb
		// does not fold into the root, so each hub is read on its own.
		records += h.Registry.SumSuffix("netsim_inband_dropped_records")
	}
	var out []string
	if events > 0 {
		out = append(out, fmt.Sprintf(
			"warning: trace buffer dropped %d events (cap reached); the trace under-reports — raise MaxTraceEvents", events))
	}
	if records > 0 {
		out = append(out, fmt.Sprintf(
			"warning: in-band collectors dropped %.0f per-hop records (cap reached); inband.tsv under-reports — raise InbandMax", records))
	}
	return out
}
