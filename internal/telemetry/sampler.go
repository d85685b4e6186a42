package telemetry

import (
	"io"
	"sync"

	"hpn/internal/artifact"
	"hpn/internal/metrics"
)

// SamplerProbe is one registered gauge the sampler snapshots each tick.
type SamplerProbe struct {
	Name string
	Fn   func() float64
	Ring *metrics.Ring
}

// Sampler periodically snapshots a set of probes — per-port utilization,
// queue pressure, per-tier traffic, flow counts — into bounded ring-buffer
// series. It is driven by the owning simulation engine (virtual time), so
// sample timestamps are deterministic.
type Sampler struct {
	// Interval is the virtual time between snapshots, in nanoseconds.
	Interval int64
	// RingCap bounds each probe's retained series (0 = unbounded).
	RingCap int

	mu     sync.Mutex
	probes []*SamplerProbe
	tracer *Tracer
}

// NewSampler returns a sampler with the given period and per-series bound.
func NewSampler(intervalNS int64, ringCap int) *Sampler {
	return &Sampler{Interval: intervalNS, RingCap: ringCap}
}

// AttachTracer mirrors every snapshot into the trace as counter tracks, so
// the sampled series render alongside spans in Perfetto.
func (s *Sampler) AttachTracer(t *Tracer) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.tracer = t
	s.mu.Unlock()
}

// Track registers a probe; its value is recorded on every Sample call.
// Nil-safe (returns nil when the sampler is disabled).
func (s *Sampler) Track(name string, fn func() float64) *SamplerProbe {
	if s == nil || fn == nil {
		return nil
	}
	p := &SamplerProbe{Name: name, Fn: fn, Ring: metrics.NewRing(s.RingCap)}
	s.mu.Lock()
	s.probes = append(s.probes, p)
	s.mu.Unlock()
	return p
}

// Sample takes one snapshot of every probe at the given virtual time.
// Nil-safe.
func (s *Sampler) Sample(nowNS int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	probes := s.probes
	tr := s.tracer
	s.mu.Unlock()
	t := float64(nowNS) / 1e9
	for _, p := range probes {
		v := p.Fn()
		p.Ring.Add(t, v)
		tr.Counter(nowNS, p.Name, v)
	}
}

// Probes returns the registered probes in registration order.
func (s *Sampler) Probes() []*SamplerProbe {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*SamplerProbe(nil), s.probes...)
}

// WriteCSV streams every retained sample in long form (series,t,value),
// the format the repo's CSV tooling already consumes.
func (s *Sampler) WriteCSV(w io.Writer) error {
	bw := artifact.NewWriter(w)
	bw.WriteString("series,t_seconds,value\n")
	var b []byte
	for _, p := range s.Probes() {
		for i := 0; i < p.Ring.Len(); i++ {
			pt := p.Ring.At(i)
			b = append(b[:0], p.Name...)
			b = append(b, ',')
			b = artifact.AppendFloat(b, pt.T)
			b = append(b, ',')
			b = artifact.AppendFloat(b, pt.V)
			bw.Write(append(b, '\n'))
		}
	}
	return bw.Flush()
}
