package netsim

import (
	"hpn/internal/inband"
	"hpn/internal/telemetry"
)

// EnableInband starts in-band path telemetry: every flow's path is walked
// with hash-decision observation, per-hop bandwidth and queue-residency
// accumulators are integrated alongside the fluid model, and each path
// generation (initial route, then one per reroute) is published as an
// EvPathFlush on reroute, completion or abort. The returned collector
// subscribes to those events; max bounds its retained record count (0 =
// unbounded). Call before the first flow starts. If telemetry is attached
// the collector is also exposed as the "inband.tsv" and "inband.json"
// artifact exporters. Idempotent: repeated calls return the same collector.
func (s *Sim) EnableInband(max int) *inband.Collector {
	if s.inband != nil {
		return s.inband
	}
	s.inband = inband.NewCollector(s.Top, max)
	s.Subscribe(inbandRecords{s.inband})
	s.needDemand()
	s.ibDemand = make([]float64, len(s.Top.Links))
	s.ibCap = make([]float64, len(s.Top.Links))
	s.ibQueue = make([]float64, len(s.Top.Links))
	s.ibQStep = make([]float64, len(s.Top.Links))
	s.ibLiveSet = make([]bool, len(s.Top.Links))
	s.registerInbandExporters()
	return s.inband
}

// Inband returns the collector, or nil while in-band telemetry is off.
func (s *Sim) Inband() *inband.Collector { return s.inband }

// registerInbandExporters exposes the per-hop artifacts through the
// telemetry registry, next to the flow log.
func (s *Sim) registerInbandExporters() {
	if s.Reg == nil || s.inband == nil {
		return
	}
	s.Reg.RegisterExporter(s.MetricsPrefix+"inband.tsv", s.inband.WriteTSV)
	s.Reg.RegisterExporter(s.MetricsPrefix+"inband.json", s.inband.WriteJSON)
	// Surface collector truncation: a capped collector silently under-reports
	// otherwise, and hpnview reads the dump as complete coverage.
	s.Reg.Gauge(s.MetricsPrefix+"netsim_inband_dropped_records",
		"in-band per-hop records discarded past the collector cap",
		func() float64 { return float64(s.inband.Dropped()) })
}

// inbandState returns the flow's lazily-allocated in-band state. Only
// called on paths already gated on s.inband != nil.
func (f *Flow) inbandState() *flowInband {
	if f.ib == nil {
		f.ib = &flowInband{}
	}
	return f.ib
}

// inbandRecords subscribes an in-band collector to the stream: each
// EvPathFlush becomes one record per hop.
type inbandRecords struct{ c *inband.Collector }

func (inbandRecords) Kinds() EventKind { return EvPathFlush }

func (r inbandRecords) FabricEvent(e *Event) {
	r.c.FlushFlow(e.Flow.ID, int(e.Epoch), e.Flow.Tuple, int64(e.Since), int64(e.At), e.Hops, e.HopStats)
}

// inbandFlush closes the flow's current path generation: accumulated
// per-hop attribution is published as an EvPathFlush (mirrored into the
// trace as a path_flush instant) and the generation counter advances.
// No-op when in-band telemetry is off or the flow has no hops (e.g. it
// never obtained a path).
func (s *Sim) inbandFlush(f *Flow) {
	if s.inband == nil || f.ib == nil || len(f.ib.hops) == 0 {
		return
	}
	ib := f.ib
	now := s.Eng.Now()
	s.publish(Event{Kind: EvPathFlush, At: now, Flow: f.state(), Epoch: int32(ib.epoch), Since: ib.since,
		Hops: ib.hops, HopStats: ib.stats})
	if s.Trace != nil {
		s.Trace.Instant(int64(now), "inband", "path_flush", telemetry.TidInband,
			telemetry.Arg{K: "flow", V: f.ID},
			telemetry.Arg{K: "epoch", V: ib.epoch},
			telemetry.Arg{K: "hops", V: len(ib.hops)})
	}
	ib.epoch++
	ib.hops = ib.hops[:0]
	ib.stats = ib.stats[:0]
}

// inbandOpen starts a new path generation for a freshly (re)routed flow:
// hop accumulators are sized to the new path and zeroed. ib.hops was
// copied from the routing walk's decisions by routeFlow.
func (s *Sim) inbandOpen(f *Flow) {
	if s.inband == nil {
		return
	}
	ib := f.inbandState()
	ib.since = s.Eng.Now()
	ib.stats = append(ib.stats[:0], make([]inband.HopStat, len(f.Path))...)
}

// inbandRefresh snapshots the allocator's per-link offered demand and
// capacity for queue integration, and maintains the live-link worklist
// (links carrying runnable flows, plus links still draining queue). Called
// from recompute after the allocation settles, when s.touched holds every
// link a runnable flow crosses. A link joins the list in the order its
// first runnable flow was gathered; the links of a carried contention
// component joined when it was built and stay while it lives, so only
// regathered flows bring new links, in active order.
func (s *Sim) inbandRefresh() {
	for _, lk := range s.touched {
		if !s.ibLiveSet[lk] {
			s.ibLiveSet[lk] = true
			s.ibLive = append(s.ibLive, lk)
		}
	}
	kept := s.ibLive[:0]
	for _, lk := range s.ibLive {
		if s.epoch[lk] == s.curEpoch {
			s.ibDemand[lk] = s.demand[lk]
			s.ibCap[lk] = s.Top.Link(lk).CapBps
			if !s.Top.LinkUsable(lk) {
				s.ibCap[lk] = 0
			}
		} else {
			// No active flow touches the link anymore: it only drains.
			s.ibDemand[lk] = 0
			s.ibCap[lk] = s.Top.Link(lk).CapBps
			if s.ibQueue[lk] <= 0 {
				s.ibLiveSet[lk] = false
				s.ibQStep[lk] = 0
				continue
			}
		}
		kept = append(kept, lk)
	}
	s.ibLive = kept
}

// inbandIntegrate advances the per-link queue proxies and per-flow hop
// accumulators across an interval of constant allocation. The queue model
// matches LinkProbe.integrate (grow at excess offered demand, drain at
// spare capacity, clamp to the port buffer); the per-hop residency uses
// the trapezoid of the queue over the step.
func (s *Sim) inbandIntegrate(dt float64) {
	for _, lk := range s.ibLive {
		q0 := s.ibQueue[lk]
		q1 := q0 + (s.ibDemand[lk]-s.ibCap[lk])/8*dt
		if q1 < 0 {
			q1 = 0
		}
		if q1 > portBufferBytes {
			q1 = portBufferBytes
		}
		s.ibQueue[lk] = q1
		s.ibQStep[lk] = (q0 + q1) / 2 * dt
	}
	for _, f := range s.active {
		if f.Rate <= 0 || f.ib == nil || len(f.ib.stats) != len(f.Path) {
			continue
		}
		ib := f.ib
		for i, lk := range f.Path {
			st := &ib.stats[i]
			st.Bits += f.Rate * dt
			if s.ibLiveSet[lk] {
				st.QueueByteS += s.ibQStep[lk]
			}
		}
	}
}
