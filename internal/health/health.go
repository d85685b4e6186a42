// Package health is an online fabric health monitor: it subscribes to the
// simulator's fabric event stream (netsim.Subscriber) and runs a set of
// incremental detectors while the run executes, with no artifact dump or
// post-run parsing required. The detectors mirror HPN's operational pain
// points — link flap storms (Fig. 18), stuck flows, ECMP hash polarization
// and degraded per-flow throughput — and an attribution engine correlates
// per-iteration communication-time regressions of a training job with the
// fabric incidents that overlapped the iteration, producing a causal
// timeline ("iteration 47 +31% comm time <- flap storm on tor3<->agg2").
//
// Everything here runs inside the deterministic event loop: detector state
// iterates in first-seen order (never Go map order), timestamps are virtual
// time, and the incidents.tsv / incidents.json artifacts are byte-identical
// across same-seed runs. With the monitor not attached, the simulator pays
// one mask check per emission point (see netsim.Subscriber).
package health

import (
	"fmt"

	"hpn/internal/chunk"
	"hpn/internal/netsim"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

// Incident kinds.
const (
	KindFlap         = "flap-storm"
	KindStall        = "stall"
	KindPolarization = "polarization"
	KindThroughput   = "degraded-throughput"
)

// Detector operating points; every run uses this one set.
const (
	// tickPeriod is the detector sweep period (stall polling, quiet-window
	// closing), matching the failure watchdog's 1s poll.
	tickPeriod sim.Time = sim.Second

	// flapWindow / flapThreshold open a flap-storm incident when a cable
	// (or switch) sees >= flapThreshold up/down transitions within
	// flapWindow: one clean fail+recover pair stays an event, a Fig. 18
	// flap train becomes an incident.
	flapWindow    sim.Time = 10 * sim.Second
	flapThreshold int      = 4

	// stallAfter opens a stall incident once flows have been continuously
	// blackholed for this long — far below the ~90s NCCL-timeout watchdog,
	// which this detector complements rather than replaces.
	stallAfter sim.Time = 2 * sim.Second

	// polarizationMinFlows is the minimum distinct-tuple mass before an
	// ECMP group is judged (also scaled by group size, so small samples
	// over wide groups never alias as polarization).
	polarizationMinFlows int = 16
	// polarizationRatio is the max/min bucket-load ratio at which a group
	// counts as polarized (streaming hashing.RatioImbalance).
	polarizationRatio float64 = 3
	// polarizationCap clamps the ratio when some bucket is starved
	// entirely.
	polarizationCap float64 = 64

	// degradedFraction flags a completed flow whose effective throughput
	// fell below this fraction of its size class's healthy mean; an
	// incident opens when degradedMinFlows such flows land within
	// degradedWindow.
	degradedFraction float64  = 0.5
	degradedMinFlows int      = 8
	degradedWindow   sim.Time = 5 * sim.Second
	// baselineFlows is the per-size-class observation count before
	// degradation is judged.
	baselineFlows int = 32

	// commRegressFraction marks a training iteration regressed when its
	// gradient-sync time exceeds the healthy-iteration mean by this
	// fraction; baselineIters healthy iterations must complete first.
	commRegressFraction float64 = 0.15
	baselineIters       int     = 2
)

// Incident is one detected fabric anomaly with a lifetime.
type Incident struct {
	ID      int    // 1-based, in detection order
	Kind    string // Kind* constant
	Subject string // the link/node/group/size-class concerned
	Start   sim.Time
	End     sim.Time // valid once !Open
	Open    bool
	Events  int     // kind-specific event count folded into the incident
	Peak    float64 // kind-specific worst magnitude (transitions in window, stalled flows, load ratio, 1/throughput-fraction)
	Detail  string  // human-readable one-liner (no tabs)
}

// incKey identifies the at-most-one open incident per (kind, subject).
type incKey struct{ kind, subject string }

// Monitor is a netsim.Subscriber: it consumes the event stream, keeps
// per-detector state, and accumulates the incident + iteration timeline.
type Monitor struct {
	Net *netsim.Sim

	incidents []Incident
	openIdx   map[incKey]int // index into incidents of the open one

	// Detector state. All iteration walks the *List slices (first-seen
	// order); the maps only serve O(1) lookup, so artifacts never depend
	// on Go map iteration order.
	flapIdx  map[string]int
	flapList []*flapState

	stalling   bool
	stallSince sim.Time

	groupIdx  map[groupKey]int
	groupList []*groupState

	classList []*classState

	// reroutes counts reroute passes seen, for per-iteration attribution.
	reroutes int

	// tickArmed tracks whether a sweep tick is scheduled. Ticks are armed
	// on demand (fabric events, stalled or degraded flows, open incidents)
	// and disarm once every detector is quiet, so a healthy steady-state
	// run schedules no events at all — which is what lets iteration
	// memoization fast-forward over it (see internal/memo).
	tickArmed bool

	// Attribution state (see attribution.go). causes holds every
	// report's Causes back to back.
	iters       chunk.Store[iterRecord]
	causes      []int
	watchedAt   sim.Time // the first report's Start
	lastIterEnd sim.Time
	lastIterRR  int
	healthySum  float64
	healthyN    int
}

// Attach builds a monitor over the simulator, subscribes it to the fabric
// event stream, and (when the simulator carries a registry) registers the
// "incidents.tsv"/"incidents.json" artifact exporters plus health metrics
// under the simulator's prefix. The periodic sweep is demand-armed: the
// first fabric event (transition, reroute, stalled or degraded flow)
// schedules it, and it disarms again once every detector is quiet.
func Attach(net *netsim.Sim) *Monitor {
	m := &Monitor{
		Net:      net,
		openIdx:  map[incKey]int{},
		flapIdx:  map[string]int{},
		groupIdx: map[groupKey]int{},
	}
	net.Subscribe(m)
	if net.Reg != nil {
		p := net.MetricsPrefix
		net.Reg.CounterFunc(p+"health_incidents_total", "fabric incidents opened by the health monitor",
			func() uint64 { return uint64(len(m.incidents)) })
		net.Reg.Gauge(p+"health_open_incidents", "fabric incidents currently open",
			func() float64 { return float64(m.OpenIncidents()) })
		net.Reg.RegisterExporter(p+"incidents.tsv", m.WriteTSV)
		net.Reg.RegisterExporter(p+"incidents.json", m.WriteJSON)
	}
	return m
}

// armTick schedules the next detector sweep unless one is already pending.
func (m *Monitor) armTick() {
	if m.tickArmed {
		return
	}
	m.tickArmed = true
	m.Net.Eng.ScheduleDaemon(tickPeriod, m.tick)
}

// tick runs one sweep and re-arms while any detector still has state to
// advance or an incident to close.
func (m *Monitor) tick() {
	m.tickArmed = false
	m.sweep(m.Net.Eng.Now())
	if m.needsTick() {
		m.armTick()
	}
}

// needsTick reports whether any detector still needs periodic sweeps:
// open incidents await their quiet-window close, stall tracking polls the
// fabric, and windowed transition/degradation histories must drain before
// the monitor can go fully idle.
func (m *Monitor) needsTick() bool {
	if m.OpenIncidents() > 0 || m.stalling || m.Net.StalledFlows() > 0 {
		return true
	}
	for _, fs := range m.flapList {
		if len(fs.times) > 0 {
			return true
		}
	}
	for _, cs := range m.classList {
		if len(cs.times) > 0 {
			return true
		}
	}
	return false
}

// MonitorOf returns the monitor subscribed to the simulator, or nil.
func MonitorOf(net *netsim.Sim) *Monitor {
	for _, sub := range net.Subscribers() {
		if m, ok := sub.(*Monitor); ok {
			return m
		}
	}
	return nil
}

// Incidents returns the incident list in detection order (shared slice;
// callers must not mutate).
func (m *Monitor) Incidents() []Incident { return m.incidents }

// OpenIncidents counts currently open incidents.
func (m *Monitor) OpenIncidents() int {
	n := 0
	for i := range m.incidents {
		if m.incidents[i].Open {
			n++
		}
	}
	return n
}

// openIncident returns the open incident for (kind, subject), creating it
// (started at start) if none is open.
func (m *Monitor) openIncident(kind, subject string, start sim.Time, detail string) *Incident {
	k := incKey{kind, subject}
	if i, ok := m.openIdx[k]; ok {
		return &m.incidents[i]
	}
	m.incidents = append(m.incidents, Incident{
		ID: len(m.incidents) + 1, Kind: kind, Subject: subject,
		Start: start, Open: true, Detail: detail,
	})
	m.openIdx[k] = len(m.incidents) - 1
	// Freeze the flight recorder's evidence window at the instant the
	// detector fired: flight.tsv then carries the raw event context behind
	// each incident, not just this detector summary. Mark is nil-safe.
	m.Net.Flight.Mark(int64(start), kind+":"+subject)
	return &m.incidents[len(m.incidents)-1]
}

// closeIncident ends the open incident for (kind, subject), if any.
func (m *Monitor) closeIncident(kind, subject string, end sim.Time) {
	k := incKey{kind, subject}
	i, ok := m.openIdx[k]
	if !ok {
		return
	}
	delete(m.openIdx, k)
	m.incidents[i].Open = false
	m.incidents[i].End = end
}

// sweep is the periodic detector pass: it polls stall state and closes
// quiet incidents.
func (m *Monitor) sweep(now sim.Time) {
	m.sweepStall(now)
	m.sweepFlap(now)
	m.sweepPolarization(now)
	m.sweepThroughput(now)
}

// linkSubject names a cable for incident subjects, e.g.
// "pod0/seg1/tor0<->pod0/agg2".
func (m *Monitor) linkSubject(l topo.LinkID) string {
	lk := m.Net.Top.Link(l)
	return m.Net.Top.Node(lk.From).Name + "<->" + m.Net.Top.Node(lk.To).Name
}

// Kinds selects the events the detectors consume.
func (m *Monitor) Kinds() netsim.EventKind {
	return netsim.EvTopology | netsim.EvFlowRouted | netsim.EvFlowDone
}

// FabricEvent runs inside event dispatch and must stay cheap and
// deterministic. Transitions feed the flap detector (cables and switches
// alike, keyed by subject name); reroute passes are counted for
// attribution, with stall recovery itself observed by the sweep (armed
// here, since a reroute either resolves a stall or leaves one to keep
// watching); routed paths feed the polarization detector, and a flow
// routed into a blackhole arms the sweep so the stall detector starts its
// clock even when no transition was observed; completions feed the
// degraded-throughput detector.
func (m *Monitor) FabricEvent(e *netsim.Event) {
	switch e.Kind {
	case netsim.EvLinkDown, netsim.EvLinkUp:
		m.noteTransition(e.At, m.linkSubject(e.Link), e.Kind == netsim.EvLinkUp)
		m.armTick()
	case netsim.EvNodeDown, netsim.EvNodeUp:
		m.noteTransition(e.At, m.Net.Top.Node(e.Node).Name, e.Kind == netsim.EvNodeUp)
		m.armTick()
	case netsim.EvReroute, netsim.EvRerouteRetry:
		m.reroutes++
		m.armTick()
	case netsim.EvFlowRouted:
		m.notePath(e.At, &e.Flow, e.Hops)
		if e.Flow.Stalled {
			m.armTick()
		}
	case netsim.EvFlowDone:
		m.noteCompletion(e.At, &e.Flow)
	}
}

// fmtPct renders a fraction as "+31%" / "-5%".
func fmtPct(frac float64) string {
	return fmt.Sprintf("%+.0f%%", frac*100)
}
