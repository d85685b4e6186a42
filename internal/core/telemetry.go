package core

import (
	"fmt"

	"hpn/internal/health"
	"hpn/internal/memo"
	"hpn/internal/sim"
	"hpn/internal/telemetry"
	"hpn/internal/topo"
)

// EnableTelemetry attaches the cluster to a telemetry hub, the one way a
// cluster joins a hub (NewHPN, NewDCN and NewFrontend build bare ones, and
// each cluster joins only the hub its builder passes): the engine,
// network, and router start emitting trace events under a dedicated trace
// process; netsim counters/gauges register under the cluster's metric
// prefix; and a periodic sampler starts snapshotting fabric gauges and the
// first samplePorts ToR uplink ports. Safe to call with a nil hub
// (no-op); calling it twice attaches the cluster as two trace processes,
// so don't.
func (c *Cluster) EnableTelemetry(h *telemetry.Hub) {
	if h == nil {
		return
	}
	prefix, smp := h.JoinCluster()
	tr := h.Tracer.Process(string(c.Arch))
	tr.NameThread(telemetry.TidSim, "engine")
	tr.NameThread(telemetry.TidNetsim, "netsim")
	tr.NameThread(telemetry.TidRoute, "route")
	tr.NameThread(telemetry.TidWorkload, "workload")
	tr.NameThread(telemetry.TidFailure, "failure")
	c.Eng.SetTracer(tr)
	c.Net.AttachTelemetry(tr, h.Registry, prefix)
	c.Net.R.Tracer = tr
	// Profiler before memo.Attach: the recorder reads Sim.Prof for its own
	// phases when it attaches. Stream subscribers (in-band collector,
	// health monitor, memo recorder) attach in any order.
	if h.Prof != nil {
		c.Eng.SetProfiler(h.Prof)
		c.Net.AttachProfiler(h.Prof, h.Flight)
	}
	if h.Opt.Memo {
		memo.Attach(c.Net)
	}
	if h.Opt.Inband {
		c.Net.EnableInband(h.Opt.InbandMax)
	}
	if h.Opt.Health {
		health.Attach(c.Net)
	}
	if smp == nil {
		return
	}
	// Counter tracks must carry this cluster's pid, not the hub root's.
	smp.AttachTracer(tr)
	smp.Track(prefix+"active_flows", func() float64 { return float64(c.Net.ActiveFlows()) })
	smp.Track(prefix+"stalled_flows", func() float64 { return float64(c.Net.StalledFlows()) })
	smp.Track(prefix+"agg_gbits", func() float64 { return c.Net.AggBits.Float() / 1e9 })
	smp.Track(prefix+"core_gbits", func() float64 { return c.Net.CoreBits.Float() / 1e9 })
	c.trackPorts(smp, prefix)
	h.Registry.RegisterExporter(prefix+"samples.csv", smp.WriteCSV)
	c.startSampler(smp)
}

// samplePorts is how many ToR uplink ports a cluster's sampler tracks.
const samplePorts int = 16

// trackPorts samples the first samplePorts ToR uplink ports (in node
// order) for utilization and queue pressure — the per-port series the
// paper's Figures 14/15 plot. The gauges read the Sim's observed links and
// record no series of their own.
func (c *Cluster) trackPorts(smp *telemetry.Sampler, prefix string) {
	tracked := 0
	for _, nd := range c.Topo.Nodes {
		if nd.Kind != topo.KindToR {
			continue
		}
		if c.Pod >= 0 && nd.Pod != c.Pod {
			continue
		}
		for i, lk := range nd.Uplinks {
			if tracked >= samplePorts {
				return
			}
			name := fmt.Sprintf("%s%s/up%d", prefix, nd.Name, i)
			util, queue := c.Net.WatchLink(lk)
			smp.Track(name+"/util_bps", util)
			smp.Track(name+"/queue_bytes", queue)
			tracked++
		}
	}
}

// startSampler drives the sampler off the cluster's engine as a daemon
// tick: samples land at exact interval multiples of virtual time and never
// keep the engine running once foreground work drains.
func (c *Cluster) startSampler(smp *telemetry.Sampler) {
	interval := sim.Time(smp.Interval)
	if interval <= 0 {
		return
	}
	var tick func()
	tick = func() {
		// Bring flow progress and the observed links up to the tick instant
		// so gauges read current, not allocation-time, values.
		c.Net.SyncTime()
		smp.Sample(int64(c.Eng.Now()))
		c.Eng.ScheduleDaemon(interval, tick)
	}
	c.Eng.ScheduleDaemon(interval, tick)
}
