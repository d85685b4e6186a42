// Package netsim is a fluid (flow-level) discrete-event network simulator.
//
// Flows are modeled as fluid streams over fixed paths; link bandwidth is
// shared max-min fairly (progressive filling), the standard abstraction for
// fabric-scale studies. The simulator recomputes rates whenever the flow set
// or the topology changes and schedules the next flow completion as a
// discrete event. Near-simultaneous completions are batched within a small
// window to keep event counts proportional to communication rounds rather
// than to individual flows.
//
// Congestion is additionally summarized per link as a queue-pressure proxy:
// the integral of (offered demand - capacity)+ clamped to a per-port buffer,
// where a flow's offered demand is its fair share at its access link. RoCE
// PFC dynamics are not packet-simulated; the proxy preserves the relative
// queue buildups the paper's Figures 14 and 15c compare (see DESIGN.md).
//
// Everything the fabric does that a consumer may care about — link and
// node transitions, reroute passes, flow routing and completion, in-band
// path generations — leaves the simulator as one ordered stream of typed,
// by-value Events (events.go). The flow log, the in-band collector, the
// flight recorder, the health monitor and the memo recorder are all
// Subscribers, fixed before the first flow starts. With nothing
// subscribed, each emission site costs one mask check. The tracer and the
// metrics registry stay direct (AttachTelemetry): the trace interleaves
// netsim's events with every other layer's in one buffer.
package netsim

import (
	"cmp"
	"fmt"
	"slices"

	"hpn/internal/hashing"
	"hpn/internal/inband"
	"hpn/internal/metrics"
	"hpn/internal/prof"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/telemetry"
	"hpn/internal/topo"
)

// Flow is one fluid stream between two NIC endpoints.
//
// Lifetime contract, shared with sim.Event: once a flow's OnComplete and
// After return, the simulator may recycle its storage — path buffer
// included — for a later StartFlow. A caller that keeps the *Flow past its
// completion must Pin it, or the handle may silently address an unrelated
// flow. Aborted flows are never recycled (the aborting caller holds the
// handle). Built with the hpncheck tag, a released flow is never reused and
// Done, AbortFlow, Pin and rerouting panic on it.
type Flow struct {
	ID    int64
	Src   route.Endpoint
	Dst   route.Endpoint
	Tuple hashing.FiveTuple

	// Bits is the total flow size; Remaining counts down to completion.
	Bits      float64
	Remaining float64

	// Rate is the current max-min allocation in bits/second (0 if stalled).
	Rate float64

	// Path is the current forwarding path (directed links).
	Path []topo.LinkID
	// Port is the source NIC port in use (the plane, under dual-plane).
	Port int

	// PinnedPort >= 0 requests a specific source port (RDMA connections
	// with pre-established disjoint paths pin their plane); -1 lets the
	// bond choose.
	PinnedPort int

	// Stalled marks a flow blackholed by a failure, awaiting reconvergence.
	Stalled bool
	// pinned excludes the flow from recycling after it completes.
	pinned bool
	// comp is the flow's contention component in Sim.comps (see alloc.go):
	// noComp while it is new, rerouted or stalled. It sits next to the
	// fields the allocator's gather reads with it.
	comp int32
	// rt is the Route the flow was posted with, if it rides it: routed
	// exactly onto its port and path, and not rerouted since.
	rt *Route

	// OnComplete, if set, runs when the flow finishes. It may start new
	// flows.
	OnComplete func(now sim.Time, f *Flow)
	// After, if set, runs after OnComplete. The second slot lets a wrapper
	// layer (rdma connections doing WQE accounting) install one persistent
	// OnComplete per connection and pass the caller's per-send callback
	// through unwrapped, instead of allocating a fresh closure per flow.
	After func(now sim.Time)

	StartedAt sim.Time
	DoneAt    sim.Time

	index int // position in Sim.active; -1 once finished
	// released is the release stamp, set only in hpncheck builds.
	released *released

	// ib holds the in-band telemetry state, allocated only under
	// Sim.EnableInband so the disabled case costs Flow a single nil
	// pointer.
	ib *flowInband
}

// flowInband is one flow's in-band path-telemetry state: the hash
// decisions behind the current path, per-hop bandwidth and queue-residency
// accumulators parallel to Path, and the generation bookkeeping (epoch
// counts reroutes, since stamps the generation's start).
type flowInband struct {
	hops  []route.HopDecision
	stats []inband.HopStat
	since sim.Time
	epoch int
}

// released records which flow a released *Flow was and when it completed
// (hpncheck builds only).
type released struct {
	id int64
	at sim.Time
}

// Done reports whether the flow has completed (or was aborted). Asking a
// completed flow is only valid while it is pinned or inside its callbacks.
// Like Pin, it stays for the checked-build misuse tests.
func (f *Flow) Done() bool {
	f.live("Done")
	return f.index < 0 && !f.Stalled
}

// Pin marks the flow as retained: the simulator will never recycle it, so
// the handle stays valid after completion. Call it before the flow
// completes; it returns the flow for chaining at the StartFlow call site.
// Nil-safe. No program calls it; the checked-build misuse tests depend on
// it.
func (f *Flow) Pin() *Flow {
	f.live("Pin")
	if f != nil {
		f.pinned = true
	}
	return f
}

// Sim couples an engine, a topology and a router into a running network.
type Sim struct {
	Eng *sim.Engine
	Top *topo.Topology
	R   *route.Router

	active []*Flow
	nextID int64
	sport  uint16
	// free holds completed, unpinned flows for reuse by StartFlow, path
	// buffers included (see Flow's lifetime contract and flowPoolCap).
	free []*Flow

	// sharding/shard, when set (RestrictShard), scope this simulator to one
	// pod shard of a partitioned fabric: admission, state fingerprints and
	// therefore allocator components never leave the shard's link set.
	sharding *topo.Sharding
	shard    int

	// completionEv is the pending completion event (nil once it fires);
	// fireCompletion is completionEvent bound once, so arming it costs no
	// closure.
	lastAdvance    sim.Time
	completionEv   *sim.Event
	fireCompletion func()
	mutating       int

	// The observed per-link state (see observe.go; nil until the first
	// observer attaches), the live links it integrates, and the probes
	// recording series from it, in registration order.
	obs       []linkObs
	obsLive   []topo.LinkID
	probeList []*LinkProbe

	// scratch arrays for the allocator, epoch-stamped to avoid O(links)
	// clearing on every recompute; see alloc.go for the roles of the
	// per-link incidence and union-find scratch.
	capRem   []float64
	nShare   []int32
	epoch    []uint32
	curEpoch uint32
	touched  []topo.LinkID
	inc      [][]int32
	ufParent []int32
	unfrozen []*Flow
	carried  []*Flow
	frozen   []bool
	heap     linkHeap
	done     []*Flow // completionEvent harvest scratch

	// The contention components, which persist across recomputes (see
	// alloc.go). comps[0] is the noComp sentinel.
	compOf     []int32 // per link: the component its flows belong to, or noComp
	comps      []allocComp
	compDirty  []bool  // per component slot: marked for rebuild, or free
	compFree   []int32 // free slots
	dirtyComps []int32 // the components marked since the last recompute
	reuse      int     // how far addComp has looked through dirtyComps
	built      []int32 // the components the last recompute filled
	// allDirty stands for every component after a topology transition.
	allDirty bool
	// The places flows riding a route left in clean components during the
	// current mutation (see vacate), indexed from their Routes.
	vacancies []vacancy

	rerouteScheduled bool

	// The fabric event stream (see events.go): subscribers in delivery
	// order, their interest masks, and the union the emission sites check.
	// started freezes the list at the first StartFlow. ev is the scratch
	// event publish hands subscribers by pointer, and evGuard the
	// hpncheck build's watch over every delivery (empty otherwise).
	// routeHops collects the hash decisions of the latest path walk
	// through noteHop, bound once so observing a walk allocates nothing.
	subs      []Subscriber
	subKinds  []EventKind
	want      EventKind
	started   bool
	ev        Event
	evGuard   eventGuard
	routeHops []route.HopDecision
	noteHop   func(route.HopDecision)

	flowLog *flowLog

	// In-band path telemetry (nil = disabled; see EnableInband).
	inband *inband.Collector

	// Telemetry surfaces; nil (the default) disables each with one nil
	// check on the hot paths. See AttachTelemetry.
	Trace         *telemetry.Tracer
	Reg           *telemetry.Registry
	MetricsPrefix string
	ctrRecomputes *telemetry.Counter
	ctrReroutes   *telemetry.Counter
	ctrLinkEvents *telemetry.Counter
	histFCT       *telemetry.Histogram

	// Engine self-observability (nil = disabled; see AttachProfiler). Prof
	// and Flight are exported so memo and health reach the shared instances
	// through the Sim they already hold. Flight is fed by the flightNotes
	// subscriber.
	Prof         *prof.Profiler
	Flight       *prof.Flight
	phRecompute  *prof.Phase
	phDecompose  *prof.Phase
	phFill       *prof.Phase
	phFillReused *prof.Phase
	phRegathered *prof.Phase
	phHandoffs   *prof.Phase
	phHeapOps    *prof.Phase

	// Stats
	CompletedFlows int64
	CompletedBits  metrics.ExactSum
	// AggBits / CoreBits count completed-flow bits whose path transited an
	// Aggregation / Core switch — the cross-segment and cross-pod traffic
	// the paper measures on Aggregation switches (Figure 15b). The bit
	// tallies are exact sums, which a memo replay's one-step add keeps.
	AggBits  metrics.ExactSum
	CoreBits metrics.ExactSum
}

// flowPoolCap bounds the flow free list a drained Sim keeps. While flows
// are in flight the list is unbounded: it can never hold more flows than
// were once in flight together, so every flow after the first peak is
// recycled, and how many are allocated does not depend on how the fabric
// happens to stagger completions. When the last active flow completes,
// the list is cut to flowPoolCap, so an idle simulator does not keep a
// fabric-wide peak alive (2,160 concurrent flows on each fig15 cluster).
// 256 is twice the concurrency of the ring collectives on one pod (128
// flows at the peak of multi-pod training), which go idle between rounds
// and must find their flows pooled.
const flowPoolCap = 256

// batchWindow merges completions that fall within this span of the
// earliest one; it trades a bounded (sub-window) error in individual flow
// completion times for far fewer rate recomputations.
const batchWindow sim.Time = 10 * sim.Microsecond

// portBufferBytes caps the per-port queue proxy (switch buffer share).
const portBufferBytes float64 = 8 << 20

// New returns a simulator over the given topology. The router is created
// internally with default convergence delay; adjust via s.R.
func New(eng *sim.Engine, top *topo.Topology) *Sim {
	s := &Sim{
		Eng:       eng,
		Top:       top,
		R:         route.New(top),
		sport:     49152,
		capRem:    make([]float64, len(top.Links)),
		nShare:    make([]int32, len(top.Links)),
		epoch:     make([]uint32, len(top.Links)),
		inc:       make([][]int32, len(top.Links)),
		ufParent:  make([]int32, len(top.Links)),
		compOf:    make([]int32, len(top.Links)),
		comps:     []allocComp{noComp: {}},
		compDirty: []bool{noComp: true},
	}
	s.noteHop = func(d route.HopDecision) { s.routeHops = append(s.routeHops, d) }
	s.fireCompletion = s.completionEvent
	s.Subscribe(flightNotes{s})
	return s
}

// RestrictShard scopes the simulator to one shard of a partitioned fabric:
// only flows between hosts of that shard are admitted, and the memo state
// fingerprint covers only the shard's own links — so another shard's link
// transitions neither invalidate this shard's cached windows nor race with
// its fingerprint reads while windows execute in parallel. Contention is
// then structurally shard-local: every allocator component this Sim can
// form lives entirely inside the shard's link set, which is exactly the
// "recompute scoped to non-spanning components" guarantee; anything that
// would span shards must instead be escalated to an unrestricted Sim on
// the global domain, whose recompute covers all links. Must be called
// before any flow starts.
func (s *Sim) RestrictShard(sh *topo.Sharding, shard int) {
	if shard < 1 || shard > sh.N {
		panic(fmt.Sprintf("netsim: shard %d outside 1..%d", shard, sh.N))
	}
	if s.started {
		panic("netsim: RestrictShard after flows started")
	}
	s.sharding = sh
	s.shard = shard
}

// SetFlowIDBase offsets the flow-ID counter so each shard's simulator
// mints IDs from a disjoint range (shard-scoped artifacts stay globally
// unambiguous). Must be called before any flow starts.
func (s *Sim) SetFlowIDBase(base int64) {
	if s.nextID != 0 {
		panic("netsim: SetFlowIDBase after flows started")
	}
	s.nextID = base
}

// FlowOpts customizes StartFlow.
type FlowOpts struct {
	// SrcPort pins the source NIC port (plane); -1 lets the bond hash pick.
	SrcPort int
	// Sport sets the transport source port of the 5-tuple; 0 auto-assigns,
	// and a Route's Sport overrides it. Path selection (Appendix B) sweeps it.
	Sport uint16
	// OnComplete runs when the flow finishes.
	OnComplete func(now sim.Time, f *Flow)
	// After runs after OnComplete; see Flow.After.
	After func(now sim.Time)
	// Route, if set, is the connection the flow is posted on (see Route).
	// It needs SrcPort == Route.Port; StartFlow rejects anything else.
	Route *Route
}

// Route is one connection: its tuple's source port, the port and path it
// was established on, and the cache of its routing result. HPN pins a
// connection to a 5-tuple whose ECMP path stays fixed until a link or
// switch changes state (Appendix B), so its flows reuse the last walk.
//
// The owner sets Sport, Port and Path; netsim never writes them. The
// allocator's hand-offs rely on a rule: the owner changes them only with
// no flow posted on the route in flight, by assigning a whole new Route,
// which clears what netsim keeps on it (hpncheck builds panic on a
// hand-off that breaks it). A flow whose walk ends unstalled on exactly
// Port and Path rides the route, and netsim stamps it with the
// topology's usability generation (topo.Topology.Gen): later flows copy
// Path without walking while that generation holds and the router is
// Settled. The walk stays the only source of routing truth: a route whose
// Path the fabric no longer yields is never stamped. The cache is
// bypassed whenever hop decisions are wanted (in-band telemetry, an
// EvFlowRouted subscriber); reroutes of stalled flows walk and ride none.
type Route struct {
	Path []topo.LinkID
	Port int32
	// gen is the usability generation plus one the route was last
	// confirmed at, truncated to 32 bits (a false match would take 2^32
	// state changes without a walk); 0 never matches.
	gen uint32
	// vac is one plus the index in Sim.vacancies of the latest place a
	// flow riding the route left in the current mutation (0 for none).
	vac   int32
	Sport uint16
	// tiers caches countTiers for Path: bit 0 known, bit 1 Agg, bit 2 Core.
	tiers uint8
}

// StartFlow injects a new flow of the given size (bytes) and returns it.
// The flow may start stalled if the fabric currently blackholes it. The
// returned handle is valid while the flow is in flight and inside its
// OnComplete and After; to use it after completion, Pin it (see Flow).
func (s *Sim) StartFlow(src, dst route.Endpoint, bytes float64, opt FlowOpts) (*Flow, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("netsim: non-positive flow size %v", bytes)
	}
	sport := opt.Sport
	if rt := opt.Route; rt != nil {
		// A route caches the path of its tuple entering on one port:
		// another port is another plane.
		if opt.SrcPort != int(rt.Port) {
			return nil, fmt.Errorf("netsim: flow %v->%v pins port %d but its Route is on port %d", src, dst, opt.SrcPort, rt.Port)
		}
		sport = rt.Sport
	}
	if s.sharding != nil {
		// Shard-scoped admission: a flow with an endpoint outside the shard
		// would route over links another shard (or the global domain) owns.
		// Valley-free routing never exits the pod for intra-pod pairs, so
		// checking endpoints is exact.
		if got := s.sharding.ShardOfHost(s.Top, src.Host); got != s.shard {
			return nil, fmt.Errorf("netsim: src host %d is in shard %d, not this simulator's shard %d; cross-shard flows must run on the global domain", src.Host, got, s.shard)
		}
		if got := s.sharding.ShardOfHost(s.Top, dst.Host); got != s.shard {
			return nil, fmt.Errorf("netsim: dst host %d is in shard %d, not this simulator's shard %d; cross-shard flows must run on the global domain", dst.Host, got, s.shard)
		}
	}
	s.started = true
	s.beginMutate()
	defer s.endMutate()

	if sport == 0 && opt.Route == nil {
		s.sport++
		if s.sport < 49152 {
			s.sport = 49152
		}
		sport = s.sport
	}
	tuple := hashing.FiveTuple{
		SrcAddr: src.Addr(), DstAddr: dst.Addr(),
		SrcPort: sport, DstPort: 4791, Proto: 17,
	}
	// Field by field: a Flow literal assigned through f copies all 192 B.
	f := s.newFlow()
	f.ID, f.Src, f.Dst, f.Tuple = s.nextID, src, dst, tuple
	f.Bits, f.Remaining, f.Rate = bytes*8, bytes*8, 0
	f.Path, f.Port, f.PinnedPort = f.Path[:0], 0, max(opt.SrcPort, -1)
	f.Stalled, f.pinned, f.comp, f.rt = false, false, noComp, nil
	f.OnComplete, f.After = opt.OnComplete, opt.After
	f.StartedAt, f.DoneAt, f.index, f.ib = s.Eng.Now(), 0, -1, f.ib.reset()
	s.nextID++
	s.routeFlow(f, opt.Route)
	if s.sharding != nil {
		// Invariant, not admission (that was the endpoint check above): an
		// in-scope pair routed over an out-of-scope link means the routing
		// layer violated the pod boundary — escalate loudly.
		for _, l := range f.Path {
			if s.sharding.ShardOfLink(l) != s.shard {
				panic(fmt.Sprintf("netsim: shard %d flow %d routed over link %d owned by domain %d",
					s.shard, f.ID, l, s.sharding.ShardOfLink(l)))
			}
		}
	}
	f.index = len(s.active)
	s.active = append(s.active, f)
	if s.Trace != nil {
		// Guarded here, not just inside instant, so the tracing-off hot
		// path does not build the argument list.
		s.instant("flow_start",
			telemetry.Int("id", f.ID),
			telemetry.Float("bytes", bytes),
			telemetry.Bool("stalled", f.Stalled))
	}
	if f.Stalled {
		s.scheduleReroute(s.R.ConvergenceDelay)
	}
	return f, nil
}

// newFlow pops a recycled flow off the free list, or allocates one.
func (s *Sim) newFlow() *Flow {
	n := len(s.free)
	if n == 0 {
		return &Flow{}
	}
	f := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	return f
}

// reset clears a recycled flow's in-band state for its next flow, keeping
// the buffers. Nil-safe.
func (ib *flowInband) reset() *flowInband {
	if ib != nil {
		*ib = flowInband{hops: ib.hops[:0], stats: ib.stats[:0]}
	}
	return ib
}

// routeFlow (re)computes a flow's port and path from current fabric state,
// writing the path into the flow's own buffer. On blackhole or no-port it
// marks the flow stalled with the best-known path (possibly empty). Under
// in-band telemetry the previous path generation is flushed first; when
// in-band telemetry or an EvFlowRouted subscriber wants them, the walk
// records its hash decisions.
//
// rt, when non-nil, is the flow's connection (see Route), ridden if the
// flow lands exactly on its port and path. Its cache is consulted and
// filled only when no hop decisions are wanted and the router is
// Settled: a hit copies its path and skips the walk.
func (s *Sim) routeFlow(f *Flow, rt *Route) {
	f.live("route")
	now := s.Eng.Now()
	s.inbandFlush(f)
	s.leaveComp(f)
	f.rt = nil
	var obs func(route.HopDecision)
	if s.inband != nil || s.want&EvFlowRouted != 0 {
		obs = s.noteHop
	}
	var gen uint32
	if rt != nil && obs == nil && s.R.Settled(now) {
		// Read before the walk: a concurrent pod's bump during it can only
		// make the stamp stale, never wrong.
		gen = uint32(s.Top.Gen()) + 1
		if rt.gen == gen {
			f.Port = int(rt.Port)
			f.Path = append(f.Path[:0], rt.Path...)
			f.rt = rt
			s.join(f)
			s.checkRouteHit(f, now)
			return
		}
	}
	s.walk(f, now, obs)
	if rt != nil && !f.Stalled && f.Port == int(rt.Port) && slices.Equal(f.Path, rt.Path) {
		f.rt, rt.gen = rt, cmp.Or(gen, rt.gen) // stamp only a settled walk
	}
	if !f.Stalled {
		s.join(f)
	}
	s.inbandOpen(f)
	s.publishRouted(f)
}

// walk routes f over the fabric as it stands at now: the pinned port while
// it works end-to-end, else the bond's choice. It sets Port, Path and
// Stalled, and copies the recorded hop decisions into the flow's in-band
// state.
func (s *Sim) walk(f *Flow, now sim.Time, obs func(route.HopDecision)) {
	tryPort := func(port int) bool {
		s.routeHops = s.routeHops[:0]
		path, blackholed, err := s.R.AppendPath(f.Path[:0], f.Src, f.Dst, port, f.Tuple, now, obs)
		if s.inband != nil {
			ib := f.inbandState()
			ib.hops = append(ib.hops[:0], s.routeHops...)
		}
		f.Port = port
		f.Path = path
		f.Stalled = blackholed || err != nil
		return !f.Stalled
	}
	// A pinned port is honored while it works end-to-end; failover falls
	// back to the bond choice (the ports share QP context, so this is
	// transparent to the application, §4).
	if p := f.PinnedPort; p >= 0 &&
		s.Top.LinkUsable(s.Top.AccessLink(f.Src.Host, f.Src.NIC, p)) && tryPort(p) {
		return
	}
	p, err := s.R.PickAccessPort(f.Src, f.Dst, f.Tuple, now)
	if err != nil {
		// The flow exists but cannot move; not a caller error. routeFlow
		// flushed its hop decisions, and the recompute zeroes its rate.
		f.Stalled = true
		f.Path = f.Path[:0]
		s.routeHops = s.routeHops[:0]
		return
	}
	tryPort(p)
}

// Batch runs fn as a single mutation: every StartFlow/AbortFlow (and any
// nested mutation) inside shares one rate recomputation when fn returns,
// instead of recomputing per call. Since all the calls land at the same
// virtual instant, the resulting allocation — and every completion that
// follows — is identical to the unbatched sequence; only the O(flows x
// hops) recomputation work per call is saved. A flow started inside a
// batch carries Rate 0 until the batch ends, unless it took the place a
// flow on its connection left in the batch (a hand-off, see join): it then
// carries that flow's rate at once, the rate the batch's recompute keeps.
//
// The rule: every loop that starts more than one flow at one instant goes
// through Batch. The callers are the collective ring rounds, AllToAll's
// shard fan-out, the trainer's pipeline-parallel sends, the checkpoint
// bursts of the §8 storage experiment and the inbandforensics example. A
// batch that starts nothing still recomputes (and, traced, samples the
// active_flows counter), so wrap only code that is sure to start flows.
func (s *Sim) Batch(fn func()) {
	s.beginMutate()
	defer s.endMutate()
	fn()
}

// beginMutate/endMutate bracket state changes: time is advanced first so
// in-flight transfers are accounted at old rates; rates are recomputed once
// after the outermost mutation completes.
func (s *Sim) beginMutate() {
	if s.mutating == 0 {
		s.advance()
	}
	s.mutating++
}

func (s *Sim) endMutate() {
	s.mutating--
	if s.mutating == 0 {
		s.recompute()
	}
}

// advance integrates flow progress and the observed links up to now.
func (s *Sim) advance() {
	now := s.Eng.Now()
	dt := (now - s.lastAdvance).Seconds()
	if dt > 0 {
		for _, f := range s.active {
			if f.Rate > 0 {
				f.Remaining -= f.Rate * dt
				if f.Remaining < 0 {
					f.Remaining = 0
				}
			}
		}
		if s.obs != nil {
			s.integrateObserved(s.lastAdvance.Seconds(), dt)
		}
		if s.inband != nil {
			s.inbandIntegrate(dt)
		}
	}
	s.lastAdvance = now
}

// completionEvent fires at the earliest projected completion; it harvests
// every flow within batchWindow of completion.
func (s *Sim) completionEvent() {
	// The engine releases this event once it returns, so the handle must
	// not outlive the firing (see sim.Event).
	s.completionEv = nil
	s.beginMutate()
	now := s.Eng.Now()
	window := batchWindow.Seconds()
	// The harvest list is Sim scratch, reused across events: completion
	// batches fire on every communication round, and the per-event
	// allocation showed up in the bench snapshots.
	done := s.done[:0]
	for i := 0; i < len(s.active); {
		f := s.active[i]
		if f.Rate > 0 && (f.Remaining <= 0 || f.Remaining/f.Rate <= window) {
			f.Remaining = 0
			f.DoneAt = now
			s.removeActive(f)
			done = append(done, f)
			continue // removeActive swapped a new flow into i
		}
		i++
	}
	var slowest sim.Time
	for _, f := range done {
		s.CompletedFlows++
		bits := metrics.ExactOf(f.Bits)
		s.CompletedBits = s.CompletedBits.Plus(bits)
		agg, core := s.countTiers(f, bits)
		s.inbandFlush(f)
		s.histFCT.Observe(int64(f.DoneAt - f.StartedAt))
		if s.Trace != nil {
			s.Trace.Complete(int64(f.StartedAt), int64(f.DoneAt-f.StartedAt),
				"netsim", "flow", telemetry.TidNetsim,
				telemetry.Int("id", f.ID),
				telemetry.Endpoint("src", f.Src.Host, f.Src.NIC),
				telemetry.Endpoint("dst", f.Dst.Host, f.Dst.NIC),
				telemetry.Float("bytes", f.Bits/8),
				telemetry.Int("port", int64(f.Port)),
				telemetry.Int("hops", int64(len(f.Path))))
		}
		if s.want&EvFlowDone != 0 {
			st := f.state()
			st.CrossedAgg, st.CrossedCore = agg, core
			s.publish(Event{Kind: EvFlowDone, At: now, Flow: st})
		}
		if d := f.DoneAt - f.StartedAt; d > slowest {
			slowest = d
		}
		if f.OnComplete != nil {
			f.OnComplete(now, f)
		}
		if f.After != nil {
			f.After(now)
		}
		if !f.pinned {
			s.release(f)
		}
	}
	if s.want&EvFlowsDone != 0 && len(done) > 0 {
		// One event per harvest batch, not per flow: completions arrive at
		// millions per second, so a per-flow flight note would both tax the
		// hot path (~7% wall on fig13 quick, measured) and scroll the
		// bounded ring so fast that a marked window held sub-millisecond
		// context. Batch size and the slowest completion are the
		// incident-relevant signals; per-flow truth lives in EvFlowDone.
		s.publish(Event{Kind: EvFlowsDone, At: now, Count: int32(len(done)), Slowest: slowest})
	}
	// Drop the harvested references before the next event so completed
	// flows do not outlive their callbacks through the scratch slice.
	for i := range done {
		done[i] = nil
	}
	s.done = done[:0]
	if len(s.active) == 0 && len(s.free) > flowPoolCap {
		clear(s.free[flowPoolCap:])
		s.free = s.free[:flowPoolCap]
	}
	s.endMutate()
}

func (s *Sim) removeActive(f *Flow) {
	s.vacate(f)
	i := f.index
	last := len(s.active) - 1
	s.active[i] = s.active[last]
	s.active[i].index = i
	s.active = s.active[:last]
	f.index = -1
}

// AbortFlow removes an in-flight flow without completing it (no callback
// fires). An aborted flow is never recycled, so aborting it again, or
// aborting nil, is a no-op. Aborting a completed flow is misuse unless it
// was pinned: its storage may already carry a newer flow, which this call
// would abort instead (hpncheck builds panic).
func (s *Sim) AbortFlow(f *Flow) {
	f.live("AbortFlow")
	if f == nil || f.index < 0 {
		return
	}
	s.beginMutate()
	defer s.endMutate()
	s.removeActive(f)
	s.inbandFlush(f)
	f.Stalled = false
	f.Rate = 0
}

// countTiers attributes a completed flow's bits to the tiers its path
// visited and reports which. A route walks its path once (Route.tiers).
func (s *Sim) countTiers(f *Flow, bits metrics.ExactSum) (agg, core bool) {
	t := uint8(0)
	if f.rt != nil {
		t = f.rt.tiers
	}
	if t == 0 {
		t = 1
		for _, lk := range f.Path {
			switch s.Top.Node(s.Top.Link(lk).To).Kind {
			case topo.KindAgg:
				t |= 2
			case topo.KindCore:
				t |= 4
			}
		}
		if f.rt != nil {
			f.rt.tiers = t
		}
	}
	agg, core = t&2 != 0, t&4 != 0
	if agg {
		s.AggBits = s.AggBits.Plus(bits)
	}
	if core {
		s.CoreBits = s.CoreBits.Plus(bits)
	}
	return agg, core
}

// ActiveFlows returns the number of in-flight flows (including stalled).
func (s *Sim) ActiveFlows() int { return len(s.active) }

// StalledFlows returns the number of currently blackholed flows.
func (s *Sim) StalledFlows() int {
	n := 0
	for _, f := range s.active {
		if f.Stalled {
			n++
		}
	}
	return n
}
