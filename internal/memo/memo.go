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
// lands its exit state with one netsim.Sim.ApplyExit. A subscriber that
// implements netsim.Summarizer (the health monitor) folds each recorded
// half of the window in one call when its summary applies; every other
// subscriber (flow log, in-band collector, flight recorder), and a
// Summarizer whose summary does not apply, is handed the replayed events
// exactly as live ones, so a replayed run's artifacts are byte-identical
// to a re-simulated run's.
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
	"unsafe"

	"hpn/internal/netsim"
	"hpn/internal/prof"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/telemetry"
)

// chunkLen is the event count of one chunk of a recorded window half: as
// many events as fill 64 KiB, since a large allocation is rounded up to
// whole pages. A half grows in fixed chunks, so recording leaves no
// doubling garbage and caching a window copies at most its last chunk.
const chunkLen = 64 << 10 / int(unsafe.Sizeof(netsim.Event{}))

// maxWindows caps the fingerprint cache. Steady-state training needs one
// or two windows; the cap only bounds pathological workloads that never
// repeat (each iteration would otherwise leak a full recording).
const maxWindows = 512

// traceHalf is one window half's captured trace emissions: the tracer's
// entries, stored with record-time values, and their arguments in order.
// Replay shifts each entry's time by the window's time shift and the
// "seq" (uint) and "id"/"flow" (int) arguments by the sequence and flow-ID
// shifts.
type traceHalf struct {
	evs  []telemetry.Entry
	args []telemetry.Value
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
	comm   sim.Time

	// trace[0] and ev[0] cover [window start, live section); trace[1] and
	// ev[1] cover (live section, window end]. The live section itself is
	// excluded — replay re-executes it and it re-emits its own output.
	// Each event half is a list of chunks of up to chunkLen events.
	trace [2]traceHalf
	ev    [2][][]netsim.Event

	// stamped is the shift each event half carries: netsim.Sim.Redeliver
	// re-stamps a half in place, so after a replay that re-delivered it the
	// half holds that replay's positions. A half every subscriber folded is
	// left as it was, so the halves may carry different shifts. Trace
	// events stay at their record-time values.
	stamped [2]netsim.Shift

	// folds holds, per Summarizer subscriber, its summary of each half.
	folds []fold
}

// fold is one Summarizer subscriber's summaries of a window's halves (nil
// for a half it cannot fold) and its bit in Redeliver's skip set.
type fold struct {
	sub netsim.Summarizer
	bit uint64
	sum [2]any
}

// recording is an in-progress window capture: the Window being filled,
// the simulator position it started at, the registry's Values there, and
// the live section's metric movement (its Values at BeginLive until
// EndLive turns them into the movement).
type recording struct {
	Window
	fp   uint64
	mark netsim.Mark

	base, live []uint64

	liveSeen bool
	hops     map[uint64][]route.HopDecision // see internHops
	arena    []route.HopDecision
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

	// bit is the recorder's own bit in Redeliver's skip set.
	bit uint64

	// keySeq, keyID and keyFlow are the trace's ids of the argument keys
	// emitTrace shifts; args is its scratch copy of one event's arguments.
	keySeq, keyID, keyFlow uint32
	args                   []telemetry.Value

	hits, misses, blocked, invalidations, replayed int64
	folded, redelivered                            int64

	ctrHits, ctrMisses, ctrBlocked, ctrInvalidations, ctrReplayed *telemetry.Counter

	// Profiler phases (nil when the simulator has no profiler attached).
	// lookup/replay are timed; fast_forward is count-only — the jump itself
	// is a handful of field writes, not worth a time.Now pair.
	phLookup, phReplay, phFF *prof.Phase
}

// Stats is a point-in-time summary of recorder activity. Folded and
// Redelivered count replayed window halves per netsim.Summarizer
// subscriber: a half the subscriber folded with its summary, and one it was
// handed event by event because it had no summary for it or refused it.
type Stats struct {
	Hits          int64
	Misses        int64
	Blocked       int64
	Invalidations int64
	Replayed      int64
	Folded        int64
	Redelivered   int64
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
	r.bit = 1 << (len(s.Subscribers()) - 1)
	if s.Trace != nil {
		s.Trace.SetHook(r.capture)
		r.keySeq, r.keyID, r.keyFlow = s.Trace.Key("seq"), s.Trace.Key("id"), s.Trace.Key("flow")
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
		Folded: r.folded, Redelivered: r.redelivered, Cached: len(r.cache),
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
// and otherwise captures the event while recording: a copy of *e, whose
// slices, which alias simulator scratch, are copied too, appended to the
// current half's last chunk.
func (r *Recorder) FabricEvent(e *netsim.Event) {
	if e.Kind&netsim.EvTopology != 0 {
		r.invalidate()
		return
	}
	if r.rec == nil || r.suspended {
		return
	}
	h := 0
	if r.rec.liveSeen {
		h = 1
	}
	chunks := r.rec.ev[h]
	if n := len(chunks); n == 0 || len(chunks[n-1]) == chunkLen {
		chunks = append(chunks, make([]netsim.Event, 0, chunkLen))
	}
	c := *e
	c.Hops = r.rec.internHops(e.Flow.Tuple, e.Hops)
	c.HopStats = slices.Clone(e.HopStats)
	last := len(chunks) - 1
	chunks[last] = append(chunks[last], c)
	r.rec.ev[h] = chunks
}

// internHops returns a retained copy of hops, shared with the previous
// event of the same flow tuple when the decisions match. A connection's
// flows repeat the same path many times per iteration, and replay only
// reads the slices, so one copy per (tuple, path) keeps a cached window
// from holding a hop slice per routed flow. The copies are carved out of
// one arena per recording; each is capped at its length, so no holder can
// append into its neighbour.
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
	at := len(rec.arena)
	rec.arena = append(rec.arena, hops...)
	c := rec.arena[at:len(rec.arena):len(rec.arena)]
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
func (r *Recorder) capture(e telemetry.Entry, args []telemetry.Value) {
	if r.rec == nil || r.suspended {
		return
	}
	h := &r.rec.trace[0]
	if r.rec.liveSeen {
		h = &r.rec.trace[1]
	}
	h.evs = append(h.evs, e)
	h.args = append(h.args, args...)
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
	r.rec = &recording{fp: fp, mark: m, base: r.net.Reg.Values(nil)}
}

// BeginLive marks the start of the live section: the trainer's iteration
// bookkeeping, whose output varies per iteration and is therefore
// re-executed on replay rather than replayed from the recording. comm is
// the payload replay must hand back to the live function.
func (r *Recorder) BeginLive(now, comm sim.Time) {
	if r == nil || r.rec == nil {
		return
	}
	r.suspended = true
	r.rec.liveAt = now
	r.rec.comm = comm
	r.rec.live = r.net.Reg.Values(nil)
}

// EndLive closes the live section and resumes capture.
func (r *Recorder) EndLive() {
	if r == nil || r.rec == nil || !r.suspended {
		return
	}
	r.suspended = false
	r.rec.liveSeen = true
	r.rec.live = sub(r.net.Reg.Values(nil), r.rec.live)
}

// FinalizeRecord closes the window begun by BeginRecord and caches it if
// it is replayable. A window is discarded when no live section was seen
// (the iteration never completed) or when netsim refuses its exit state
// (see netsim.Sim.ExitFrom): a moved sport cursor, flows still active, or
// a pending-event population that changed over the window. A cached
// window carries every netsim.Summarizer subscriber's summary of each
// half, taken now that the halves have reached every subscriber live.
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
	metrics := sub(sub(r.net.Reg.Values(nil), rec.base), rec.live)
	if rec.exit = r.net.ExitFrom(rec.mark, metrics); rec.exit == nil {
		return
	}
	// Each half's last chunk is copied to exact size: a cached window
	// outlives the recording, and the chunk's spare capacity would stay
	// live with it.
	w := rec.Window
	for _, half := range w.ev {
		if n := len(half); n > 0 {
			half[n-1] = slices.Clone(half[n-1])
		}
	}
	for i, sub := range r.net.Subscribers() {
		if s, ok := sub.(netsim.Summarizer); ok {
			w.folds = append(w.folds, fold{sub: s, bit: 1 << i,
				sum: [2]any{s.Summarize(w.ev[0]), s.Summarize(w.ev[1])}})
		}
	}
	r.cache[rec.fp] = &w
}

// sub subtracts b from a, two registry Values vectors with a taken no
// earlier than b, in place and returns a. a may be longer: a metric
// registered after b was taken counts from zero. The arithmetic wraps, so
// a sum of such differences is exact whatever order it is taken in.
func sub(a, b []uint64) []uint64 {
	for i, v := range b {
		a[i] -= v
	}
	return a
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

// Replay applies the recorded window at the current instant: it folds
// each captured half of fabric events into the Summarizer subscribers
// whose summaries apply, re-delivers it to the other subscribers and
// re-emits the captured trace events — all shifted to the current time,
// flow-ID and sequence cursors — runs liveFn for the live section, then
// lands the window's exit state with one netsim.Sim.ApplyExit. The first
// half precedes liveFn so subscribers are current when the live section
// reads them.
func (r *Recorder) Replay(w *Window, liveFn func(now, comm sim.Time)) {
	defer r.phReplay.End(r.phReplay.Begin())
	sh := r.net.ShiftFrom(w.exit)
	r.replayed++
	r.ctrReplayed.Inc()
	r.replayHalf(w, 0, sh)
	r.emitTrace(&w.trace[0], sh)
	if liveFn != nil {
		liveFn(w.liveAt+sh.T, w.comm)
	}
	r.replayHalf(w, 1, sh)
	r.emitTrace(&w.trace[1], sh)
	r.phFF.Add(1)
	r.net.ApplyExit(w.exit)
}

// replayHalf folds half h of w into every Summarizer subscriber whose
// summary applies and re-delivers its events, re-stamped to sh, to every
// other interested subscriber but the recorder.
func (r *Recorder) replayHalf(w *Window, h int, sh netsim.Shift) {
	skip := r.bit
	for i := range w.folds {
		f := &w.folds[i]
		if sum := f.sum[h]; sum != nil && f.sub.ApplySummary(sum) {
			checkFold(f.sub, w.ev[h], sum)
			skip |= f.bit
			r.folded++
		} else {
			r.redelivered++
		}
	}
	from := w.stamped[h]
	for _, c := range w.ev[h] {
		w.stamped[h] = r.net.Redeliver(c, from, sh, skip)
	}
}

// emitTrace re-emits captured trace events through the hook-bypassing
// Emit path. Only three argument keys carry run-position state and are
// shifted: "seq" (engine sequence numbers, uint), and "id"/"flow" (flow
// IDs, int). Everything else replays verbatim.
func (r *Recorder) emitTrace(h *traceHalf, sh netsim.Shift) {
	tr := r.net.Trace
	if tr == nil {
		return
	}
	args := h.args
	for _, e := range h.evs {
		a := append(r.args[:0], args[:e.Args()]...)
		args = args[e.Args():]
		for j := range a {
			switch {
			case a[j].Kind == telemetry.KindUint && a[j].Key == r.keySeq:
				a[j].Bits += sh.Seq
			case a[j].Kind == telemetry.KindInt && (a[j].Key == r.keyID || a[j].Key == r.keyFlow):
				a[j].Bits += uint64(sh.ID)
			}
		}
		r.args = a
		e.TS += int64(sh.T)
		tr.Emit(e, a)
	}
}
