// Package memo implements iteration memoization with fast-forward replay:
// the optimization that lets a steady-state training run simulate thousands
// of iterations for the cost of the first few.
//
// LLM training traffic is brutally periodic — the paper's premise: every
// iteration launches the same collectives over the same connections on the
// same fabric. Once one iteration has been simulated from a given fabric
// state, re-simulating the next identical one recomputes exactly the same
// flow allocations, completions and telemetry, just shifted in time. The
// recorder exploits that: it fingerprints the simulator state at each
// iteration boundary, records the full effect of one window of simulation
// (netsim's fabric event stream, the trace buffer, metric movement, engine
// clock/sequence consumption), and on a fingerprint hit replays that
// recorded window — re-stamped to the current time, flow-ID and sequence
// cursors — instead of simulating it, then fast-forwards the engine clock
// past it. Replayed events reach the other stream subscribers (flow log,
// in-band collector, flight recorder, health monitor) exactly as live ones
// do, so a replayed run's artifacts are byte-identical to a re-simulated
// run's.
//
// Safety comes from three layers:
//
//   - The fingerprint (netsim.Sim.StateHash64 mixed with the workload's
//     schedule fingerprint) covers everything the window's outcome depends
//     on: per-link usability, the sport cursor, the active-flow multiset,
//     in-band queue residuals and the integration-gap back to the last
//     fluid advance. Any drift means a different key, which means a miss.
//   - Recording validity guards discard windows in which anything happened
//     that replay could not reproduce: an engine event armed or fired
//     mid-window, the sport cursor moving, flows still active at either
//     boundary.
//   - The recorder subscribes to the fabric event stream; any link or node
//     transition or reroute — anything that changes fabric behavior —
//     drops the whole cache and aborts any recording in progress. The
//     next iteration re-simulates and re-warms.
//
// The one part of a window that is never replayed from the cache is the
// trainer's own per-iteration bookkeeping (the "live section", bracketed
// by BeginLive/EndLive): its metrics and trace output vary per iteration
// (iteration numbers, cumulative counters), so replay re-executes it.
package memo

import (
	"slices"

	"hpn/internal/netsim"
	"hpn/internal/prof"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/telemetry"
)

// maxWindows caps the fingerprint cache. Steady-state training needs one
// or two windows; the cap only bounds pathological workloads that never
// repeat (each iteration would otherwise leak a full recording).
const maxWindows = 512

// Hasher is the FNV-1a style mixer every memo fingerprint is built with.
// Callers fold their own state in with Mix and combine sub-fingerprints
// (the workload's schedule hash, netsim's state hash) the same way.
type Hasher struct{ h uint64 }

// NewHasher returns a hasher at the FNV-1a offset basis.
func NewHasher() *Hasher { return &Hasher{h: 14695981039346656037} }

// Mix folds one word into the hash.
func (h *Hasher) Mix(v uint64) {
	h.h ^= v
	h.h *= 1099511628211
}

// MixString folds a string in byte-wise.
func (h *Hasher) MixString(s string) {
	for i := 0; i < len(s); i++ {
		h.Mix(uint64(s[i]))
	}
}

// Sum returns the current hash value.
func (h *Hasher) Sum() uint64 { return h.h }

// LiveMetricsOwner is implemented by stream subscribers (health.Monitor)
// that increment registry counters while handling fabric events. Replay
// re-delivers those events, so the increments happen live; the recorder
// excludes the named counters from the recorded metrics delta to avoid
// double-counting them.
type LiveMetricsOwner interface {
	LiveMetricNames() []string
}

// traceEvent is one captured trace emission, stored with record-time
// absolute values; replay shifts ts by the window's time delta and the
// "seq"/"id"/"flow" args by the sequence and flow-ID deltas.
type traceEvent struct {
	ph        byte
	ts, dur   int64
	cat, name string
	tid       int
	args      []telemetry.Arg
}

// Window is one recorded iteration: everything needed to reproduce its
// effects at a later, shifted position in the run.
type Window struct {
	fp      uint64
	baseT   sim.Time
	baseID  int64
	baseSeq uint64

	// dur is the window length; liveAt is the offset of the live section
	// (the trainer's iteration-completion bookkeeping, re-executed on
	// replay with the recorded comm payload).
	dur    sim.Time
	liveAt sim.Time
	comm   float64

	seqDelta, procDelta uint64
	idDelta             int64

	// part1/ev1 cover [window start, live section); the *2 halves cover
	// (live section, window end]. The live section itself is excluded —
	// replay re-executes it and it re-emits its own output.
	part1, part2 []traceEvent
	ev1, ev2     []netsim.Event

	statFlows                   int64
	statBits, statAgg, statCore float64
	metrics                     *telemetry.MetricsDelta
	residual                    *netsim.InbandResidual
	lastAdvOffset               sim.Time
}

// Dur returns the window's virtual-time length.
func (w *Window) Dur() sim.Time { return w.dur }

// recording is an in-progress window capture.
type recording struct {
	fp       uint64
	baseT    sim.Time
	baseID   int64
	baseSeq  uint64
	baseProc uint64
	sport    uint16

	// Validity guards: the engine's pending-event population must be
	// untouched over the window (nothing armed, nothing external fired).
	beginPending int
	beginNextAt  sim.Time
	beginNextOK  bool

	statFlows                   int64
	statBits, statAgg, statCore float64

	snapA, snapB1, snapB2 *telemetry.MetricsSnapshot
	d1                    *telemetry.MetricsDelta

	liveSeen bool
	liveAt   sim.Time
	comm     float64

	part1, part2 []traceEvent
	ev1, ev2     []netsim.Event
	hops         map[uint64][]route.HopDecision // see internHops
}

// Recorder is the memoization engine: a fabric-stream subscriber plus a
// trace-capture hook on a netsim.Sim. The workload drives it through
// BeginRecord/BeginLive/EndLive/FinalizeRecord around each iteration and
// Lookup/Replay at iteration boundaries.
type Recorder struct {
	net *netsim.Sim
	eng *sim.Engine

	cache map[uint64]*Window

	rec       *recording
	suspended bool

	hits, misses, blocked, invalidations, replayed int64

	ctrHits, ctrMisses, ctrBlocked, ctrInvalidations, ctrReplayed *telemetry.Counter

	// Profiler phases (nil when the simulator has no profiler attached).
	// lookup/replay are timed; fast_forward is count-only — the jump itself
	// is a handful of field writes, not worth a time.Now pair.
	phLookup, phReplay, phFF *prof.Phase
}

// Stats is a point-in-time summary of recorder activity.
type Stats struct {
	Hits          int64
	Misses        int64
	Blocked       int64
	Invalidations int64
	Replayed      int64
	Cached        int
}

// Attach subscribes a recorder to the simulator's fabric event stream,
// installs the trace-capture hook, and registers memo counters when the
// simulator carries a registry. Other subscribers may attach before or
// after it, as long as all do so before the first flow starts. Call after
// AttachTelemetry and AttachProfiler: the hook, counters and phases bind
// to the tracer, registry and profiler present now.
func Attach(s *netsim.Sim) *Recorder {
	r := &Recorder{
		net:   s,
		eng:   s.Eng,
		cache: map[uint64]*Window{},
	}
	s.Subscribe(r)
	if s.Trace != nil {
		s.Trace.SetHook(r.capture)
	}
	if s.Reg != nil {
		p := s.MetricsPrefix
		r.ctrHits = s.Reg.Counter(p+"memo_hits_total", "iteration fingerprint cache hits (windows replayed)")
		r.ctrMisses = s.Reg.Counter(p+"memo_misses_total", "iteration fingerprint cache misses (windows simulated)")
		r.ctrBlocked = s.Reg.Counter(p+"memo_blocked_total", "cache hits not replayable (pending events or active flows)")
		r.ctrInvalidations = s.Reg.Counter(p+"memo_invalidations_total", "fabric events that dropped the memo cache")
		r.ctrReplayed = s.Reg.Counter(p+"memo_replayed_iterations_total", "iterations fast-forwarded from the cache")
		s.Reg.Gauge(p+"memo_cached_windows", "recorded iteration windows held in the cache",
			func() float64 { return float64(len(r.cache)) })
		// Stats as gauges alongside the counters: gauges stay out of the
		// recorder's own metrics snapshots (counters/histograms only), so
		// these views are replay-safe and cheap to read from dashboards.
		s.Reg.Gauge(p+"memo_hits", "live view of Stats.Hits (cache hits)",
			func() float64 { return float64(r.Stats().Hits) })
		s.Reg.Gauge(p+"memo_misses", "live view of Stats.Misses (cache misses)",
			func() float64 { return float64(r.Stats().Misses) })
		s.Reg.Gauge(p+"memo_invalidations", "live view of Stats.Invalidations (cache drops)",
			func() float64 { return float64(r.Stats().Invalidations) })
	}
	r.phLookup = s.Prof.Phase("memo/lookup", "fingerprint cache lookups (hit, miss or blocked)")
	r.phReplay = s.Prof.PhaseAlloc("memo/replay", "window replays: event re-delivery, trace re-emit, fast-forward")
	r.phFF = s.Prof.Phase("memo/fast_forward", "engine fast-forward jumps (count-only)")
	return r
}

// RecorderOf returns the recorder subscribed to the simulator, or nil.
func RecorderOf(s *netsim.Sim) *Recorder {
	for _, sub := range s.Subscribers() {
		if r, ok := sub.(*Recorder); ok {
			return r
		}
	}
	return nil
}

// Stats returns the recorder's activity counters.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	return Stats{
		Hits: r.hits, Misses: r.misses, Blocked: r.blocked,
		Invalidations: r.invalidations, Replayed: r.replayed,
		Cached: len(r.cache),
	}
}

// --- Fabric stream: invalidation + event capture -----------------------

// Kinds is the invalidating transitions plus whatever the other
// subscribers consume: those are the events replay must re-deliver, and
// nothing else is worth recording.
func (r *Recorder) Kinds() netsim.EventKind {
	kinds := netsim.EvTopology
	for _, sub := range r.net.Subscribers() {
		if _, self := sub.(*Recorder); !self {
			kinds |= sub.Kinds()
		}
	}
	return kinds
}

// FabricEvent drops the cache on a transition (fabric behavior changed)
// and otherwise captures the event while recording, copying the slices
// that alias simulator scratch.
func (r *Recorder) FabricEvent(e netsim.Event) {
	if e.Kind&netsim.EvTopology != 0 {
		r.invalidate()
		return
	}
	if r.rec == nil || r.suspended {
		return
	}
	e.Hops = r.rec.internHops(e.Flow.Tuple, e.Hops)
	e.HopStats = slices.Clone(e.HopStats)
	if r.rec.liveSeen {
		r.rec.ev2 = append(r.rec.ev2, e)
	} else {
		r.rec.ev1 = append(r.rec.ev1, e)
	}
}

// internHops returns a retained copy of hops, shared with the previous
// event of the same flow tuple when the decisions match. A connection's
// flows repeat the same path many times per iteration, and replay only
// reads the slices, so one copy per (tuple, path) keeps a cached window
// from holding a hop slice per routed flow.
func (rec *recording) internHops(tuple uint64, hops []route.HopDecision) []route.HopDecision {
	if len(hops) == 0 {
		return nil
	}
	if prev, ok := rec.hops[tuple]; ok && slices.Equal(prev, hops) {
		return prev
	}
	if rec.hops == nil {
		rec.hops = map[uint64][]route.HopDecision{}
	}
	c := slices.Clone(hops)
	rec.hops[tuple] = c
	return c
}

// invalidate drops every cached window and aborts any recording: the
// fabric just changed in a way no recorded window accounts for.
func (r *Recorder) invalidate() {
	r.invalidations++
	r.ctrInvalidations.Inc()
	if len(r.cache) > 0 {
		r.cache = map[uint64]*Window{}
	}
	r.rec = nil
	r.suspended = false
}

// capture is the trace hook: every live emission lands in the current
// recording (replayed emissions go through Tracer.Emit, which bypasses
// the hook, so a replay never re-captures itself).
func (r *Recorder) capture(ph byte, tsNS, durNS int64, cat, name string, tid int, args []telemetry.Arg) {
	if r.rec == nil || r.suspended {
		return
	}
	ev := traceEvent{ph: ph, ts: tsNS, dur: durNS, cat: cat, name: name, tid: tid}
	if len(args) > 0 {
		ev.args = append([]telemetry.Arg(nil), args...)
	}
	if r.rec.liveSeen {
		r.rec.part2 = append(r.rec.part2, ev)
	} else {
		r.rec.part1 = append(r.rec.part1, ev)
	}
}

// --- Recording ---------------------------------------------------------

// BeginRecord starts capturing the window keyed by fp. It declines (and
// records nothing) when the fingerprint is already cached, the cache is
// full, or flows are still active — a window must start from a drained
// fabric to be replayable.
func (r *Recorder) BeginRecord(fp uint64) {
	if r == nil {
		return
	}
	r.rec = nil
	r.suspended = false
	if _, ok := r.cache[fp]; ok || len(r.cache) >= maxWindows || r.net.ActiveFlows() != 0 {
		return
	}
	nextAt, nextOK := r.eng.NextAt()
	r.rec = &recording{
		fp:           fp,
		baseT:        r.eng.Now(),
		baseID:       r.net.NextFlowID(),
		baseSeq:      r.eng.Seq(),
		baseProc:     r.eng.Processed,
		sport:        r.net.SportCursor(),
		beginPending: r.eng.Pending(),
		beginNextAt:  nextAt,
		beginNextOK:  nextOK,
		statFlows:    r.net.CompletedFlows,
		statBits:     r.net.CompletedBits,
		statAgg:      r.net.AggBits,
		statCore:     r.net.CoreBits,
		snapA:        r.net.Reg.SnapshotMetrics(),
	}
}

// BeginLive marks the start of the live section: the trainer's iteration
// bookkeeping, whose output varies per iteration and is therefore
// re-executed on replay rather than replayed from the recording. comm is
// the payload replay must hand back to the live function.
func (r *Recorder) BeginLive(now sim.Time, comm float64) {
	if r == nil || r.rec == nil {
		return
	}
	r.suspended = true
	r.rec.liveAt = now - r.rec.baseT
	r.rec.comm = comm
	r.rec.snapB1 = r.net.Reg.SnapshotMetrics()
}

// EndLive closes the live section and resumes capture.
func (r *Recorder) EndLive() {
	if r == nil || r.rec == nil || !r.suspended {
		return
	}
	r.suspended = false
	r.rec.liveSeen = true
	r.rec.d1 = r.rec.snapB1.DeltaSince(r.rec.snapA)
	r.rec.snapB2 = r.net.Reg.SnapshotMetrics()
}

// FinalizeRecord closes the window begun by BeginRecord and caches it if
// it is replayable. A window is discarded when no live section was seen
// (the iteration never completed), the sport cursor moved (auto-assigned
// ports are not periodic), flows are still active, or the engine's
// pending-event population changed over the window — the signature of a
// timer armed mid-window or an external (failure-injection) event firing
// inside it, neither of which replay can reproduce.
func (r *Recorder) FinalizeRecord() {
	if r == nil || r.rec == nil {
		return
	}
	rec := r.rec
	r.rec = nil
	r.suspended = false
	now := r.eng.Now()
	if !rec.liveSeen ||
		r.net.SportCursor() != rec.sport ||
		r.net.ActiveFlows() != 0 ||
		r.eng.Pending() != rec.beginPending ||
		(rec.beginNextOK && rec.beginNextAt < now) {
		return
	}
	snapC := r.net.Reg.SnapshotMetrics()
	metrics := telemetry.MergeDeltas(rec.d1, snapC.DeltaSince(rec.snapB2))
	metrics.Exclude(r.liveMetricNames())
	// The event halves are copied to exact size: a cached window outlives
	// the recording, and append's spare capacity would stay live with it.
	w := &Window{
		fp:            rec.fp,
		baseT:         rec.baseT,
		baseID:        rec.baseID,
		baseSeq:       rec.baseSeq,
		dur:           now - rec.baseT,
		liveAt:        rec.liveAt,
		comm:          rec.comm,
		seqDelta:      r.eng.Seq() - rec.baseSeq,
		procDelta:     r.eng.Processed - rec.baseProc,
		idDelta:       r.net.NextFlowID() - rec.baseID,
		part1:         rec.part1,
		part2:         rec.part2,
		ev1:           slices.Clone(rec.ev1),
		ev2:           slices.Clone(rec.ev2),
		statFlows:     r.net.CompletedFlows - rec.statFlows,
		statBits:      r.net.CompletedBits - rec.statBits,
		statAgg:       r.net.AggBits - rec.statAgg,
		statCore:      r.net.CoreBits - rec.statCore,
		metrics:       metrics,
		residual:      r.net.CaptureInbandResidual(),
		lastAdvOffset: r.net.LastAdvance() - rec.baseT,
	}
	r.cache[rec.fp] = w
}

// liveMetricNames collects the subscriber-owned counter names (see
// LiveMetricsOwner).
func (r *Recorder) liveMetricNames() []string {
	var names []string
	for _, sub := range r.net.Subscribers() {
		if lm, ok := sub.(LiveMetricsOwner); ok {
			names = append(names, lm.LiveMetricNames()...)
		}
	}
	return names
}

// --- Replay ------------------------------------------------------------

// Lookup returns the cached window for fp if it is replayable right now:
// no flows may be active, and no pending engine event may land inside (or
// exactly at the end of) the would-be window, since replay cannot
// interleave it. Non-replayable hits count as blocked, not misses.
func (r *Recorder) Lookup(fp uint64) *Window {
	if r == nil {
		return nil
	}
	defer r.phLookup.End(r.phLookup.Begin())
	w := r.cache[fp]
	if w == nil {
		r.misses++
		r.ctrMisses.Inc()
		return nil
	}
	if r.net.ActiveFlows() != 0 {
		r.blocked++
		r.ctrBlocked.Inc()
		return nil
	}
	if at, ok := r.eng.NextAt(); ok && at <= r.eng.Now()+w.dur {
		r.blocked++
		r.ctrBlocked.Inc()
		return nil
	}
	r.hits++
	r.ctrHits.Inc()
	return w
}

// Replay applies the recorded window at the current instant: it
// re-delivers the captured fabric events to the other subscribers and
// re-emits the captured trace events — all shifted to the current time,
// flow-ID and sequence cursors — runs liveFn for the live section, then
// fast-forwards the engine past the window and restores the simulator's
// exit-state (stats, metrics, in-band residual, integration cursor). The
// first half precedes liveFn so subscribers are current when the live
// section reads them.
func (r *Recorder) Replay(w *Window, liveFn func(now sim.Time, comm float64)) {
	defer r.phReplay.End(r.phReplay.Begin())
	t0 := r.eng.Now()
	dt := t0 - w.baseT
	did := r.net.NextFlowID() - w.baseID
	dseq := r.eng.Seq() - w.baseSeq
	r.replayed++
	r.ctrReplayed.Inc()
	r.replayEvents(w.ev1, dt, did)
	r.emitTrace(w.part1, dt, did, dseq)
	if liveFn != nil {
		liveFn(t0+w.liveAt, w.comm)
	}
	r.replayEvents(w.ev2, dt, did)
	r.emitTrace(w.part2, dt, did, dseq)
	r.phFF.Add(1)
	r.eng.FastForward(t0+w.dur, w.seqDelta, w.procDelta)
	r.net.AdvanceFlowIDs(w.idDelta)
	r.net.AddReplayedStats(w.statFlows, w.statBits, w.statAgg, w.statCore)
	r.net.Reg.ApplyMetricsDelta(w.metrics)
	r.net.RestoreInbandResidual(w.residual)
	r.net.RestoreLastAdvance(t0 + w.lastAdvOffset)
}

// replayEvents re-delivers captured fabric events, re-stamped, to every
// other subscriber in recorded order.
func (r *Recorder) replayEvents(evs []netsim.Event, dt sim.Time, did int64) {
	for i := range evs {
		r.net.ReplayEvent(restamp(evs[i], dt, did), r)
	}
}

// restamp shifts a recorded event to a replay position: every timestamp by
// dt and the flow ID by did. Durations (Slowest) and per-hop values carry
// over verbatim.
func restamp(e netsim.Event, dt sim.Time, did int64) netsim.Event {
	e.At += dt
	e.Since += dt
	e.Flow.ID += did
	e.Flow.StartedAt += dt
	return e
}

// emitTrace re-emits captured trace events through the hook-bypassing
// Emit path. Only three argument keys carry run-position state and are
// shifted: "seq" (engine sequence numbers, uint64), and "id"/"flow"
// (flow IDs, int64). Everything else replays verbatim.
func (r *Recorder) emitTrace(evs []traceEvent, dt sim.Time, did int64, dseq uint64) {
	tr := r.net.Trace
	if tr == nil {
		return
	}
	for i := range evs {
		e := &evs[i]
		args := e.args
		if len(args) > 0 {
			args = append([]telemetry.Arg(nil), args...)
			for j := range args {
				switch v := args[j].V.(type) {
				case uint64:
					if args[j].K == "seq" {
						args[j].V = v + dseq
					}
				case int64:
					if args[j].K == "id" || args[j].K == "flow" {
						args[j].V = v + did
					}
				}
			}
		}
		tr.Emit(e.ph, e.ts+int64(dt), e.dur, e.cat, e.name, e.tid, args)
	}
}
