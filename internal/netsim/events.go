package netsim

import (
	"fmt"
	"math/bits"

	"hpn/internal/inband"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

// EventKind names one kind of fabric event. Kinds are bit flags, so a
// subscriber's interest set is a single mask.
type EventKind uint16

// Fabric event kinds, with the Event fields each one fills.
const (
	EvLinkDown     EventKind = 1 << iota // FailCable: Link
	EvLinkUp                             // RecoverCable: Link
	EvNodeDown                           // FailNode: Node
	EvNodeUp                             // RecoverNode: Node
	EvReroute                            // reroute pass: Count re-pathed, StillStalled left
	EvRerouteRetry                       // follow-up reroute pass: as EvReroute
	EvFlowRouted                         // flow (re)routed: Flow, Hops
	EvFlowDone                           // flow completed (not on abort): Flow incl. tiers
	EvFlowsDone                          // one completion harvest: Count flows, Slowest FCT
	EvPathFlush                          // in-band path generation closed: Flow, Epoch, Since, Hops, HopStats
)

// EvTopology is every fabric transition — link and node state changes and
// the reroute passes they trigger.
const EvTopology = EvLinkDown | EvLinkUp | EvNodeDown | EvNodeUp | EvReroute | EvRerouteRetry

var kindNames = [...]string{
	"link_down", "link_up", "node_down", "node_up", "reroute", "reroute_retry",
	"flow_routed", "flow_done", "flows_done", "path_flush",
}

// String returns the kind's snake_case name (the flight-recorder row kind).
func (k EventKind) String() string {
	if i := bits.TrailingZeros16(uint16(k)); bits.OnesCount16(uint16(k)) == 1 && i < len(kindNames) {
		return kindNames[i]
	}
	return fmt.Sprintf("EventKind(%#x)", uint16(k))
}

// FlowState is a flow's state copied into an event, so an event stays
// valid after the *Flow it describes moves on. A completion's time is the
// EvFlowDone event's At.
type FlowState struct {
	ID       int64
	Src, Dst route.Endpoint
	// Tuple is the packed 5-tuple (hashing.FiveTuple.Word): the hash input
	// behind every ECMP decision on the path.
	Tuple     uint64
	Bits      float64
	Port      int
	StartedAt sim.Time
	PathLen   int
	Stalled   bool
	// CrossedAgg/CrossedCore report whether the path visited an
	// Aggregation/Core switch; set on EvFlowDone only.
	CrossedAgg  bool
	CrossedCore bool
}

// state copies the flow's event-visible state.
func (f *Flow) state() FlowState {
	return FlowState{
		ID: f.ID, Src: f.Src, Dst: f.Dst, Tuple: f.Tuple.Word(),
		Bits: f.Bits, Port: f.Port, StartedAt: f.StartedAt,
		PathLen: len(f.Path), Stalled: f.Stalled,
	}
}

// Event is one fabric event. Each kind fills the fields listed at its
// constant; the rest stay zero. The memo recorder retains thousands per
// cached window, so the per-kind scalars are packed into 32 bits.
type Event struct {
	Kind EventKind
	Link topo.LinkID
	Node topo.NodeID

	// Count is the flows a reroute pass re-pathed or a harvest completed;
	// StillStalled the flows a reroute pass left stalled.
	Count        int32
	StillStalled int32
	// Epoch and Since identify the path generation an EvPathFlush closes.
	Epoch int32

	At sim.Time
	// Slowest is the longest completion time in a harvest.
	Slowest sim.Time
	Since   sim.Time

	Flow FlowState

	// Hops are the hash decisions behind the path (EvFlowRouted,
	// EvPathFlush); HopStats the per-hop bandwidth and queue-residency
	// accumulators of an EvPathFlush, parallel to Hops.
	Hops     []route.HopDecision
	HopStats []inband.HopStat
}

// Subscriber consumes the fabric event stream. Kinds is read whenever the
// subscriber list changes and selects the events FabricEvent receives.
// FabricEvent runs inside event dispatch, so it must not mutate the
// simulator and must be deterministic (no wall clock, no global
// randomness), or same-seed runs lose byte-identical artifacts.
//
// Every interested subscriber is handed the same event in turn: simulator
// scratch on a live publish, a memo window's recorded event on a replay.
// It and its slices are valid only during the call. A subscriber must
// neither keep the pointer nor modify the event; one that retains an event
// copies *e and its slices. The hpncheck build verifies the event is
// unchanged after each call.
type Subscriber interface {
	Kinds() EventKind
	FabricEvent(e *Event)
}

// Summarizer is a Subscriber that can fold a recorded memo window half in
// one call instead of being handed its events again. Summarize runs once
// per half, after the half has reached every subscriber live, and returns
// nil when the half cannot be folded exactly. ApplySummary folds the half
// into the subscriber's state exactly as re-delivering its events would —
// at any later replay, whatever shift the events would carry — or returns
// false, without touching any state, when it cannot prove that; the half
// is then re-delivered.
type Summarizer interface {
	Summarize(evs [][]Event) any
	ApplySummary(sum any) bool
}

// maxSubscribers bounds the subscriber list: Redeliver's skip set is one
// bit per subscriber.
const maxSubscribers = 64

// Subscribe appends sub to the subscriber list. Events reach subscribers in
// list order. The list is fixed once the first flow starts: subscribing
// later panics, since the subscriber would miss part of the stream. It
// also panics past 64 subscribers.
func (s *Sim) Subscribe(sub Subscriber) {
	s.mustNotHaveStarted()
	if len(s.subs) == maxSubscribers {
		panic(fmt.Sprintf("netsim: more than %d subscribers", maxSubscribers))
	}
	s.subs = append(s.subs, sub)
	s.refreshKinds()
}

// Subscribers returns the subscriber list (shared; do not mutate).
func (s *Sim) Subscribers() []Subscriber { return s.subs }

// mustNotHaveStarted panics once the first flow has started. Callers that
// change the subscriber list or masks check it before touching anything,
// so a caller that recovers leaves the list and masks consistent.
func (s *Sim) mustNotHaveStarted() {
	if s.started {
		panic("netsim: subscribers changed after the first flow started")
	}
}

// refreshKinds re-reads every subscriber's interest mask. A subscriber's
// mask may depend on the others (the memo recorder records what the rest
// consume), so all are re-read on every change.
func (s *Sim) refreshKinds() {
	s.subKinds = s.subKinds[:0]
	s.want = 0
	for _, sub := range s.subs {
		k := sub.Kinds()
		s.subKinds = append(s.subKinds, k)
		s.want |= k
	}
}

// publish delivers e to every subscriber interested in its kind, through
// the Sim's scratch event: one copy per event, however many subscribers
// take it. Hot emission sites check s.want first so an unwanted event
// costs one branch, not the construction of its FlowState.
func (s *Sim) publish(e Event) {
	if s.want&e.Kind == 0 {
		return
	}
	s.enterDelivery()
	s.ev = e
	s.deliver(&s.ev, 0)
	s.exitDelivery()
}

// Redeliver re-delivers recorded events to every interested subscriber
// outside skip, a set with bit i standing for Subscribers()[i] — the memo
// replay path, where skip holds the recorder that captured the events and
// every subscriber that folded them through its Summarizer. evs carry the
// stamps of shift from (the zero Shift for a fresh recording). Each is
// re-stamped in place to shift to (see Shift.restamp) and handed to
// subscribers as it lies in evs, so a replay copies no event. Redeliver
// returns the shift evs now carry: to, or from when no subscriber outside
// skip wants any event, in which case evs are left as they are.
func (s *Sim) Redeliver(evs []Event, from, to Shift, skip uint64) Shift {
	var want EventKind
	for i, k := range s.subKinds {
		if skip&(1<<i) == 0 {
			want |= k
		}
	}
	if want == 0 {
		return from
	}
	by := Shift{T: to.T - from.T, ID: to.ID - from.ID}
	s.enterDelivery()
	for i := range evs {
		e := &evs[i]
		by.restamp(e)
		s.deliver(e, skip)
	}
	s.exitDelivery()
	return to
}

// deliver hands e to every interested subscriber outside skip (bit i
// standing for subscriber i).
func (s *Sim) deliver(e *Event, skip uint64) {
	s.snapEvent(e)
	for i, sub := range s.subs {
		if s.subKinds[i]&e.Kind != 0 && skip&(1<<i) == 0 {
			sub.FabricEvent(e)
			s.checkEvent(e, sub)
		}
	}
}

// publishRouted emits EvFlowRouted after routeFlow settles a flow's path,
// with the hash decisions its last walk recorded in routeHops.
func (s *Sim) publishRouted(f *Flow) {
	if s.want&EvFlowRouted == 0 {
		return
	}
	s.publish(Event{Kind: EvFlowRouted, At: s.Eng.Now(), Flow: f.state(), Hops: s.routeHops})
}

// flightNotes adapts the stream to the incident flight recorder: one row
// per topology transition, reroute pass and completion harvest. It is
// always subscribed and wants nothing while Sim.Flight is nil.
type flightNotes struct{ s *Sim }

func (n flightNotes) Kinds() EventKind {
	if n.s.Flight == nil {
		return 0
	}
	return EvTopology | EvFlowsDone
}

func (n flightNotes) FabricEvent(e *Event) {
	top := n.s.Top
	subject := ""
	v1, v2 := int64(e.Count), int64(e.StillStalled)
	switch e.Kind {
	case EvLinkDown, EvLinkUp:
		lk := top.Link(e.Link)
		subject = top.Node(lk.From).Name + "->" + top.Node(lk.To).Name
		v1, v2 = int64(e.Link), 0
	case EvNodeDown, EvNodeUp:
		subject = top.Node(e.Node).Name
		v1, v2 = int64(e.Node), 0
	case EvFlowsDone:
		v2 = int64(e.Slowest)
	}
	n.s.Flight.Note(int64(e.At), e.Kind.String(), subject, v1, v2)
}
