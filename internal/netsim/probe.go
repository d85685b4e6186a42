package netsim

import (
	"hpn/internal/metrics"
	"hpn/internal/topo"
)

// LinkProbe records a link's utilization and queue-pressure time series.
// Samples are appended per allocation interval (piecewise-constant rates),
// so the series is exact under the fluid model.
type LinkProbe struct {
	Link topo.LinkID
	Name string

	// Util is the allocated throughput (bits/second) over time.
	Util metrics.Series
	// Queue is the queue-pressure proxy (bytes) over time.
	Queue metrics.Series

	// Accumulators refreshed on each rate recomputation.
	util   float64 // allocated bps
	demand float64 // offered bps
	cap    float64

	queueBytes float64
}

// integrate advances the probe across an interval of constant allocation.
// The queue proxy grows while offered demand exceeds capacity and drains at
// the spare capacity otherwise, clamped to [0, portBufferBytes].
func (p *LinkProbe) integrate(t0, dt float64) {
	excess := p.demand - p.cap
	p.queueBytes += excess / 8 * dt
	if p.queueBytes < 0 {
		p.queueBytes = 0
	}
	if p.queueBytes > portBufferBytes {
		p.queueBytes = portBufferBytes
	}
	p.Util.Add(t0+dt/2, p.util)
	p.Queue.Add(t0+dt, p.queueBytes)
}

// QueueBytes returns the current queue-pressure value.
func (p *LinkProbe) QueueBytes() float64 { return p.queueBytes }

// TrackLink attaches (or returns the existing) probe for a link.
func (s *Sim) TrackLink(l topo.LinkID, name string) *LinkProbe {
	if p := s.probeByLink[l]; p != nil {
		return p
	}
	s.needDemand()
	p := &LinkProbe{Link: l, Name: name}
	p.Util.Name = name + "/util"
	p.Queue.Name = name + "/queue"
	s.probeByLink[l] = p
	s.probeList = append(s.probeList, p)
	return p
}
