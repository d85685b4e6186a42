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
// (netsim's fabric event stream, the trace buffer, metric movement, and
// the engine and fluid-model exit state as one netsim.Exit), and on a
// fingerprint hit replays that recorded window — re-stamped to the current
// time, flow-ID and sequence cursors — instead of simulating it, then
// lands its exit state with one netsim.Sim.ApplyExit. Replayed events
// reach the other stream subscribers (flow log, in-band collector, flight
// recorder, health monitor) exactly as live ones do, so a replayed run's
// artifacts are byte-identical to a re-simulated run's.
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

// LiveMetricsOwner is implemented by stream subscribers (health.Monitor)
// that increment registry counters while handling fabric events. Replay
// re-delivers those events, so the increments happen live; the recorder
// excludes the named counters from the recorded metrics delta to avoid
// double-counting them.
type LiveMetricsOwner interface {
	LiveMetricNames() []string
}

// traceEvent is one captured trace emission, stored with record-time
// absolute values; replay shifts ts by the window's time shift and the
// "seq"/"id"/"flow" args by the sequence and flow-ID shifts.
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
	// exit is the simulator state the window leaves behind, and the origin
	// its captures are re-stamped from.
	exit *netsim.Exit

	// liveAt is the record-time instant of the live section (the trainer's
	// iteration-completion bookkeeping, re-executed on replay with the
	// recorded comm payload).
	liveAt sim.Time
	comm   float64

	// part1/ev1 cover [window start, live section); the *2 halves cover
	// (live section, window end]. The live section itself is excluded —
	// replay re-executes it and it re-emits its own output.
	part1, part2 []traceEvent
	ev1, ev2     []netsim.Event
}

// recording is an in-progress window capture: the Window being filled,
// the simulator position it started at and the metric snapshots its
// registry movement is computed from.
type recording struct {
	Window
	fp   uint64
	mark netsim.Mark

	snapA, snapB1, snapB2 *telemetry.MetricsSnapshot
	d1                    *telemetry.MetricsDelta

	liveSeen bool
	hops     map[uint64][]route.HopDecision // see internHops
}

// Recorder is the memoization engine: a fabric-stream subscriber plus a
// trace-capture hook on a netsim.Sim. The workload drives it through
// BeginRecord/BeginLive/EndLive/FinalizeRecord around each iteration and
// Lookup/Replay at iteration boundaries.
type Recorder struct {
	net *netsim.Sim

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
		r.rec.ev2 = appendDoubling(r.rec.ev2, e)
	} else {
		r.rec.ev1 = appendDoubling(r.rec.ev1, e)
	}
}

// appendDoubling appends e, doubling the capacity when full. A window's
// halves grow to thousands of events and are copied to exact size when the
// window is cached, so append's gentler growth for large slices would only
// multiply the garbage a recording leaves.
func appendDoubling(evs []netsim.Event, e netsim.Event) []netsim.Event {
	if len(evs) == cap(evs) {
		evs = slices.Grow(evs, len(evs)+1)
	}
	return append(evs, e)
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
	if _, ok := r.cache[fp]; ok || len(r.cache) >= maxWindows {
		return
	}
	m, ok := r.net.Mark()
	if !ok {
		return
	}
	r.rec = &recording{fp: fp, mark: m, snapA: r.net.Reg.SnapshotMetrics()}
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
	r.rec.liveAt = now
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
// (the iteration never completed) or when netsim refuses its exit state
// (see netsim.Sim.ExitFrom): a moved sport cursor, flows still active, or
// a pending-event population that changed over the window.
func (r *Recorder) FinalizeRecord() {
	if r == nil || r.rec == nil {
		return
	}
	rec := r.rec
	r.rec = nil
	r.suspended = false
	if !rec.liveSeen {
		return
	}
	metrics := telemetry.MergeDeltas(rec.d1, r.net.Reg.SnapshotMetrics().DeltaSince(rec.snapB2))
	metrics.Exclude(r.liveMetricNames())
	if rec.exit = r.net.ExitFrom(rec.mark, metrics); rec.exit == nil {
		return
	}
	// The event halves are copied to exact size: a cached window outlives
	// the recording, and append's spare capacity would stay live with it.
	w := rec.Window
	w.ev1, w.ev2 = slices.Clone(w.ev1), slices.Clone(w.ev2)
	r.cache[rec.fp] = &w
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

// Lookup returns the cached window for fp if it fits right now (see
// netsim.Sim.Fits): no active flows, and no pending engine event inside
// or at the end of the would-be window. Non-replayable hits count as
// blocked, not misses.
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
	if !r.net.Fits(w.exit) {
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
// lands the window's exit state with one netsim.Sim.ApplyExit. The first
// half precedes liveFn so subscribers are current when the live section
// reads them.
func (r *Recorder) Replay(w *Window, liveFn func(now sim.Time, comm float64)) {
	defer r.phReplay.End(r.phReplay.Begin())
	sh := r.net.ShiftFrom(w.exit)
	r.replayed++
	r.ctrReplayed.Inc()
	r.replayEvents(w.ev1, sh)
	r.emitTrace(w.part1, sh)
	if liveFn != nil {
		liveFn(w.liveAt+sh.T, w.comm)
	}
	r.replayEvents(w.ev2, sh)
	r.emitTrace(w.part2, sh)
	r.phFF.Add(1)
	r.net.ApplyExit(w.exit)
}

// replayEvents re-delivers captured fabric events, re-stamped, to every
// other subscriber in recorded order.
func (r *Recorder) replayEvents(evs []netsim.Event, sh netsim.Shift) {
	for i := range evs {
		r.net.ReplayEvent(restamp(evs[i], sh), r)
	}
}

// restamp shifts a recorded event to a replay position: every timestamp by
// sh.T and the flow ID by sh.ID. Durations (Slowest) and per-hop values
// carry over verbatim.
func restamp(e netsim.Event, sh netsim.Shift) netsim.Event {
	e.At += sh.T
	e.Since += sh.T
	e.Flow.ID += sh.ID
	e.Flow.StartedAt += sh.T
	return e
}

// emitTrace re-emits captured trace events through the hook-bypassing
// Emit path. Only three argument keys carry run-position state and are
// shifted: "seq" (engine sequence numbers, uint64), and "id"/"flow"
// (flow IDs, int64). Everything else replays verbatim.
func (r *Recorder) emitTrace(evs []traceEvent, sh netsim.Shift) {
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
						args[j].V = v + sh.Seq
					}
				case int64:
					if args[j].K == "id" || args[j].K == "flow" {
						args[j].V = v + sh.ID
					}
				}
			}
		}
		tr.Emit(e.ph, e.ts+int64(sh.T), e.dur, e.cat, e.name, e.tid, args)
	}
}
