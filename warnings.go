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

// OverflowWarnings reports every bounded collector on the hub that hit its
// cap and silently dropped data: the trace-event ring (MaxTraceEvents) and
// the in-band per-hop collectors (InbandMax). One message per overflowing
// collector, ready to print to stderr; empty means every artifact is
// complete. Runners (hpnsim, hpnbench) share this so the two CLIs can
// never drift on which overflows they surface.
func OverflowWarnings(hub *TelemetryHub) []string {
	if hub == nil {
		return nil
	}
	var out []string
	if hub.Tracer != nil {
		if d := hub.Tracer.Dropped(); d > 0 {
			out = append(out, fmt.Sprintf(
				"warning: trace buffer dropped %d events (cap reached); the trace under-reports — raise MaxTraceEvents", d))
		}
	}
	if d := MetricSum(hub, "netsim_inband_dropped_records"); d > 0 {
		out = append(out, fmt.Sprintf(
			"warning: in-band collectors dropped %.0f per-hop records (cap reached); inband.tsv under-reports — raise InbandMax", d))
	}
	return out
}
