package netsim

import (
	"hpn/internal/prof"
	"hpn/internal/telemetry"
)

// AttachTelemetry wires the simulator into a tracer and metrics registry.
// The tracer receives flow spans, topology-transition instants and an
// active-flow counter track; the registry gains netsim counters, gauges
// over live simulator state, and a "flowlog.tsv" artifact exporter (when
// flow logging is enabled). prefix namespaces metric names so several
// clusters can share one registry. All arguments are optional: a nil
// tracer or registry disables that half.
func (s *Sim) AttachTelemetry(tr *telemetry.Tracer, reg *telemetry.Registry, prefix string) {
	s.Trace = tr
	s.Reg = reg
	s.MetricsPrefix = prefix
	s.ctrFlows = reg.Counter(prefix+"netsim_flows_completed_total", "completed fluid flows")
	s.ctrRecomputes = reg.Counter(prefix+"netsim_recomputes_total", "max-min rate recomputations (allocation rounds)")
	s.ctrReroutes = reg.Counter(prefix+"netsim_reroute_passes_total", "post-convergence reroute passes")
	s.ctrLinkEvents = reg.Counter(prefix+"netsim_topology_events_total", "link/node up+down transitions")
	// 10us .. 1000s in decades: collective shards sit near the bottom,
	// stall-delayed elephants near the top.
	s.histFCT = reg.Histogram(prefix+"netsim_fct_seconds", "flow completion time distribution (s)",
		telemetry.LogBuckets(1e-5, 10, 8))
	reg.Gauge(prefix+"netsim_active_flows", "in-flight flows (including stalled)",
		func() float64 { return float64(s.ActiveFlows()) })
	reg.Gauge(prefix+"netsim_stalled_flows", "currently blackholed flows",
		func() float64 { return float64(s.StalledFlows()) })
	reg.Gauge(prefix+"netsim_completed_bits", "bits delivered by completed flows",
		func() float64 { return s.CompletedBits })
	reg.Gauge(prefix+"netsim_agg_bits", "completed-flow bits that transited an Aggregation switch",
		func() float64 { return s.AggBits })
	reg.Gauge(prefix+"netsim_core_bits", "completed-flow bits that transited a Core switch",
		func() float64 { return s.CoreBits })
	if s.flowLog != nil {
		s.registerFlowLogExporter()
	}
	s.registerInbandExporters()
}

// AttachProfiler wires the allocator's phases into the engine profiler and
// points the stream's flight-recorder subscriber at fl, replacing any
// earlier recorder. Phase names are cluster-independent on purpose: several
// clusters attached to one hub accumulate into the same phases, giving the
// process view hpnprof reports (per-cluster attribution would need
// per-cluster profiles, which nothing yet consumes). Pass nils to disable
// either half. Call before the first flow starts.
func (s *Sim) AttachProfiler(p *prof.Profiler, fl *prof.Flight) {
	s.mustNotHaveStarted()
	s.Prof = p
	s.Flight = fl
	s.refreshKinds()
	s.phRecompute = p.Phase("netsim/recompute", "max-min allocation rounds, end to end")
	s.phDecompose = p.Phase("netsim/decompose", "union-find component decomposition within recompute")
	s.phFill = p.Phase("netsim/fill", "progressive filling of the components rebuilt this recompute")
	s.phFillReused = p.Phase("netsim/fill_reused", "components carried with their rates because no mutation marked them (count-only)")
	s.phRegathered = p.Phase("netsim/regathered", "flows gathered into a rebuilt component (count-only)")
	s.phHandoffs = p.Phase("netsim/handoffs", "flows that took the place a flow on the same connection left in a carried component (count-only)")
	s.phHeapOps = p.Phase("netsim/heap_ops", "link-heap pops and stale re-keys during fills (count-only)")
}

// registerFlowLogExporter exposes the completed-flow TSV as a named
// telemetry artifact, so runners dump it alongside traces and metrics.
func (s *Sim) registerFlowLogExporter() {
	if s.Reg == nil || s.flowLog == nil {
		return
	}
	s.Reg.RegisterExporter(s.MetricsPrefix+"flowlog.tsv", s.WriteFlowLog)
}

// SyncTime integrates in-flight transfers and probe accumulators up to the
// engine's current instant without changing rates. Samplers call it before
// reading utilization/queue gauges so values are current as of the tick.
// It is a no-op while a mutation is already in progress.
func (s *Sim) SyncTime() {
	if s.mutating > 0 {
		return
	}
	s.advance()
}

// UtilBps returns the probe's currently allocated throughput (bits/second).
func (p *LinkProbe) UtilBps() float64 { return p.util }

// instant emits a topology-transition instant event, if tracing is on.
func (s *Sim) instant(name string, args ...telemetry.Arg) {
	if s.Trace == nil {
		return
	}
	s.Trace.Instant(int64(s.Eng.Now()), "netsim", name, telemetry.TidNetsim, args...)
}
