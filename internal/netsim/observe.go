package netsim

import (
	"hpn/internal/metrics"
	"hpn/internal/topo"
)

// This file is the per-link queue-pressure model (see the package comment)
// and the observers that read it: LinkProbe series, the sampler's port
// gauges (WatchLink) and the in-band collector's per-hop queue residency.
// The model's state is allocated by the first observer (observeLinks), so
// a Sim without one never pays for it.

// linkObs is one observed link's state.
type linkObs struct {
	demand float64 // offered bps, filled by offerDemand
	cap    float64 // bps the queue drains at
	util   float64 // allocated bps
	queue  float64 // queue-pressure proxy (bytes)
	qstep  float64 // queue integral over the last step (byte-seconds)
	live   bool    // listed in obsLive
}

// observeLinks switches the per-link observation state on.
func (s *Sim) observeLinks() {
	if s.obs == nil {
		s.obs = make([]linkObs, len(s.Top.Links))
	}
}

// refreshObserved snapshots the new allocation's per-link offered demand,
// utilisation and capacity, and maintains the live-link worklist (links
// carrying runnable flows, plus links still draining queue). Called from
// recompute after the fill, when s.touched holds every link a runnable
// flow crosses and each link's incidence list sums its rates in active
// order. A link joins the list in the order its first runnable flow was
// gathered; the links of a carried contention component joined when it
// was built and stay while it lives, so only regathered flows bring new
// links, in active order.
func (s *Sim) refreshObserved() {
	for _, lk := range s.touched {
		if o := &s.obs[lk]; !o.live {
			o.live = true
			s.obsLive = append(s.obsLive, lk)
		}
	}
	kept := s.obsLive[:0]
	for _, lk := range s.obsLive {
		o := &s.obs[lk]
		// Down links drain at capacity too: no runnable flow crosses one.
		o.cap = s.Top.Link(lk).CapBps
		if s.epoch[lk] == s.curEpoch {
			util := 0.0
			for _, fi := range s.inc[lk] {
				util += s.unfrozen[fi].Rate
			}
			o.util = util
		} else {
			// No runnable flow touches the link anymore: it only drains.
			o.demand, o.util = 0, 0
			if o.queue <= 0 {
				o.live = false
				continue
			}
		}
		kept = append(kept, lk)
	}
	s.obsLive = kept
}

// integrateObserved advances the live links' queue proxies across an
// interval of constant allocation starting at t0 (seconds), then appends
// each probe's samples. A queue grows at the excess of offered demand over
// capacity and drains at the spare capacity, clamped to the port buffer;
// qstep is the trapezoid of the queue over the step.
func (s *Sim) integrateObserved(t0, dt float64) {
	for _, lk := range s.obsLive {
		o := &s.obs[lk]
		q0 := o.queue
		q1 := q0 + (o.demand-o.cap)/8*dt
		if q1 < 0 {
			q1 = 0
		}
		if q1 > portBufferBytes {
			q1 = portBufferBytes
		}
		o.queue = q1
		o.qstep = (q0 + q1) / 2 * dt
	}
	for _, p := range s.probeList {
		o := &s.obs[p.Link]
		p.Util.Add(t0+dt/2, o.util)
		p.Queue.Add(t0+dt, o.queue)
	}
}

// LinkProbe records a link's utilization and queue-pressure time series.
// Samples are appended per allocation interval (piecewise-constant rates),
// so the series is exact under the fluid model.
type LinkProbe struct {
	Link topo.LinkID

	// Util is the allocated throughput (bits/second) over time.
	Util metrics.Series
	// Queue is the queue-pressure proxy (bytes) over time.
	Queue metrics.Series
}

// TrackLink attaches (or returns the existing) probe for a link. A probe
// attached mid-run starts its series from the link's current observed
// state.
func (s *Sim) TrackLink(l topo.LinkID) *LinkProbe {
	for _, p := range s.probeList {
		if p.Link == l {
			return p
		}
	}
	s.observeLinks()
	p := &LinkProbe{Link: l}
	s.probeList = append(s.probeList, p)
	return p
}

// WatchLink returns gauges of a link's allocated throughput (bits/second)
// and queue-pressure proxy (bytes) as of the last integration, without
// recording a series. Samplers call SyncTime before reading them.
func (s *Sim) WatchLink(l topo.LinkID) (utilBps, queueBytes func() float64) {
	s.observeLinks()
	return func() float64 { return s.obs[l].util }, func() float64 { return s.obs[l].queue }
}
