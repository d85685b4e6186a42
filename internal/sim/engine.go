// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps a monotonic virtual clock in nanoseconds and a binary-heap
// scheduler of timed callbacks. All time in the simulator is virtual; nothing
// here touches wall-clock time, which keeps every experiment reproducible.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"time"

	"hpn/internal/prof"
	"hpn/internal/telemetry"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Common durations expressed as virtual time deltas.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// MaxTime is the largest representable virtual time.
const MaxTime = Time(math.MaxInt64)

// Seconds returns t expressed in seconds as a float.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as a duration for human-readable output.
func (t Time) String() string { return time.Duration(t).String() }

// Event is a scheduled callback. The zero Event is inert.
//
// Lifetime contract: once an event has fired, the engine may recycle its
// storage for a future Schedule (the free-list that keeps hot dispatch
// paths allocation-free). A caller that retains the *Event across its
// firing — to Cancel, Reschedule or inspect it later — must Pin it, or the
// handle may silently address an unrelated, recycled event. Events that
// are canceled before firing are never recycled (the canceling caller
// still holds the handle). Built with the hpncheck tag, a released event
// is never reused and Cancel, Reschedule, Canceled and Pin panic on it.
type Event struct {
	at     Time
	seq    uint64 // tie-breaker: FIFO among events at the same instant
	fn     func()
	index  int // heap index; -1 once popped or canceled
	cancel bool
	// daemon events (telemetry samplers, watchers) fire like any other
	// event while foreground work remains, but do not keep Run alive.
	daemon bool
	// pinned excludes the event from free-list recycling after it fires.
	pinned bool
	// released is the release stamp, set only in hpncheck builds.
	released *released
}

// released records how an event left the engine's hands: when it fired
// and which callback it carried (hpncheck builds only).
type released struct {
	at  Time
	seq uint64
	fn  string
}

// Canceled reports whether the event was canceled before firing. Like At
// and Pin, no program calls it; the checked-build misuse tests depend on
// it.
func (e *Event) Canceled() bool {
	e.live("Canceled")
	return e != nil && e.cancel
}

// At returns the virtual time the event is scheduled for. The
// checked-build misuse tests depend on it.
func (e *Event) At() Time { return e.at }

// Pin marks the event as retained: the engine will never recycle it into
// the free list, so the handle stays valid (for Cancel / Reschedule /
// Canceled) after the event fires. Returns the event for chaining at the
// Schedule call site. Nil-safe. The checked-build misuse tests depend on
// it.
func (e *Event) Pin() *Event {
	e.live("Pin")
	if e != nil {
		e.pinned = true
	}
	return e
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	fg     int // pending non-daemon events
	tracer *telemetry.Tracer
	// Profiler phases: phRun times whole Run/RunUntil/RunWhile invocations
	// (never per-event — a time.Now pair per dispatch would dwarf the
	// dispatch itself); phDispatch is count-only, fed from the Processed
	// delta at loop exit.
	phRun      *prof.Phase
	phDispatch *prof.Phase
	// phDispatchAlloc tracks heap objects allocated inside serial run
	// loops (Run/RunUntil/RunWhile). Allocation deltas are process-global,
	// so RunCapped — which sharded windows execute concurrently — feeds
	// phRun only.
	phDispatchAlloc *prof.Phase
	// Processed counts events executed so far; useful for runaway detection.
	Processed uint64

	// free is the event free list: fired, unpinned, uncanceled events are
	// recycled here so steady-state scheduling allocates nothing.
	free []*Event
}

// eventPoolCap bounds the per-engine free list. Beyond this the garbage
// collector is cheaper than the cache pollution of a huge idle pool.
const eventPoolCap = 4096

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of scheduled (not yet fired) events.
func (e *Engine) Pending() int { return len(e.events) }

// PendingWork returns the number of pending non-daemon events — the count
// that keeps Run alive.
func (e *Engine) PendingWork() int { return e.fg }

// SetTracer attaches a telemetry tracer; every dispatched event then emits
// a zero-duration span on the engine track. Pass nil to disable.
func (e *Engine) SetTracer(t *telemetry.Tracer) { e.tracer = t }

// SetProfiler attaches the engine's phases to a profiler. Pass nil to
// disable (the phases come back nil and every hook degrades to one nil
// check). The dispatch count includes events credited by FastForward — it
// mirrors Processed, so memo-on and memo-off runs report the same count.
func (e *Engine) SetProfiler(p *prof.Profiler) {
	e.phRun = p.Phase("sim/run", "event-loop invocations (Run/RunUntil/RunWhile/RunCapped); wall covers whole loops")
	e.phDispatch = p.Phase("sim/dispatch", "events dispatched (count-only; includes fast-forward credits)")
	e.phDispatchAlloc = p.PhaseAlloc("sim/dispatch_allocs", "serial run-loop invocations with heap-allocation tracking (free-list effectiveness)")
}

// Schedule runs fn after delay. A negative delay is treated as zero (fn runs
// at the current instant, after already-queued events for this instant).
func (e *Engine) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleDaemon runs fn after delay as a daemon event: it fires like any
// other event while foreground work remains, but does not keep Run (or
// RunUntil/RunWhile) alive on its own. Telemetry samplers use this so a
// self-rescheduling tick never deadlocks the simulation's exit condition.
func (e *Engine) ScheduleDaemon(delay Time, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.schedule(e.now+delay, fn, true)
}

// ScheduleAt runs fn at the absolute virtual time at. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) ScheduleAt(at Time, fn func()) *Event {
	return e.schedule(at, fn, false)
}

func (e *Engine) schedule(at Time, fn func(), daemon bool) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*ev = Event{at: at, seq: e.seq, fn: fn, daemon: daemon}
	} else {
		ev = &Event{at: at, seq: e.seq, fn: fn, daemon: daemon}
	}
	heap.Push(&e.events, ev)
	if !daemon {
		e.fg++
	}
	return ev
}

// Reschedule moves a still-pending event to the absolute virtual time at
// and reports whether it did. A nil, fired or canceled event returns false
// (the caller schedules a fresh one). The event keeps its callback but is
// re-sequenced, so FIFO ordering among same-instant events matches a
// Cancel+Schedule pair exactly — reusing the Event only saves the
// allocation. Hot reschedulers (the flow-completion timer re-armed on every
// rate recomputation) depend on this.
func (e *Engine) Reschedule(ev *Event, at Time) bool {
	ev.live("Reschedule")
	if ev == nil || ev.cancel || ev.index < 0 {
		return false
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: reschedule at %v before now %v", at, e.now))
	}
	ev.at = at
	e.seq++
	ev.seq = e.seq
	heap.Fix(&e.events, ev.index)
	return true
}

// Cancel removes a scheduled event. Canceling an already-canceled event,
// or a fired one the caller pinned, is a no-op.
func (e *Engine) Cancel(ev *Event) {
	ev.live("Cancel")
	if ev == nil || ev.cancel || ev.index < 0 {
		if ev != nil {
			ev.cancel = true
		}
		return
	}
	ev.cancel = true
	heap.Remove(&e.events, ev.index)
	ev.index = -1
	if !ev.daemon {
		e.fg--
	}
}

// Step fires the next event, advancing the clock to its timestamp.
// It reports whether an event was fired.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*Event)
		if ev.cancel {
			continue
		}
		if !ev.daemon {
			e.fg--
		}
		e.now = ev.at
		e.Processed++
		if e.tracer != nil {
			e.tracer.Complete(int64(ev.at), 0, "sim", "dispatch", telemetry.TidSim,
				telemetry.Uint("seq", ev.seq))
		}
		ev.fn()
		// Release the fired event unless a caller retained it (Pin) or
		// canceled it during its own dispatch (the canceler holds the
		// handle).
		if !ev.pinned && !ev.cancel {
			e.release(ev)
		}
		return true
	}
	return false
}

// Run fires events until no foreground work remains. Daemon events
// interleave while foreground events exist; once only daemons are left
// they stay queued and Run returns.
func (e *Engine) Run() {
	tk, n0 := e.phRun.Begin(), e.Processed
	atk := e.phDispatchAlloc.Begin()
	for e.fg > 0 && e.Step() {
	}
	e.phDispatchAlloc.End(atk)
	e.endRun(tk, n0)
}

// RunCapped fires events with timestamps <= deadline while foreground work
// remains, leaving the clock at the last fired event (unlike RunUntil it
// never advances the clock to the deadline itself). The sharded window
// scheduler uses it to advance one shard through a conservative time
// window: the shard's clock must reflect only what actually executed, so
// cross-shard deliveries clamp against real progress, not the window edge.
func (e *Engine) RunCapped(deadline Time) {
	tk, n0 := e.phRun.Begin(), e.Processed
	for e.fg > 0 {
		next := e.peek()
		if next == nil || next.at > deadline {
			break
		}
		e.Step()
	}
	e.endRun(tk, n0)
}

// RunUntil fires events with timestamps <= deadline while foreground work
// remains, then advances the clock to the deadline. Events scheduled
// beyond the deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	tk, n0 := e.phRun.Begin(), e.Processed
	atk := e.phDispatchAlloc.Begin()
	defer e.phDispatchAlloc.End(atk)
	for e.fg > 0 {
		next := e.peek()
		if next == nil {
			break
		}
		if next.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	e.endRun(tk, n0)
}

// RunWhile fires events while cond() remains true and foreground work
// remains.
func (e *Engine) RunWhile(cond func() bool) {
	tk, n0 := e.phRun.Begin(), e.Processed
	for cond() && e.fg > 0 && e.Step() {
	}
	e.endRun(tk, n0)
}

// endRun closes one loop invocation: the elapsed wall into sim/run, the
// Processed delta into sim/dispatch.
func (e *Engine) endRun(tk prof.Token, n0 uint64) {
	e.phDispatch.Add(int64(e.Processed - n0))
	e.phRun.End(tk)
}

func (e *Engine) peek() *Event {
	for len(e.events) > 0 {
		if e.events[0].cancel {
			heap.Pop(&e.events)
			continue
		}
		return e.events[0]
	}
	return nil
}

// NextAt returns the time of the next pending event and ok=false if none.
func (e *Engine) NextAt() (Time, bool) {
	ev := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// Seq returns the sequence cursor: the number of events sequenced so far.
// schedule and Reschedule stamp this into every event as the same-instant
// tie-breaker, so the delta between two readings is exactly how many
// sequence numbers a window of simulation consumed. Iteration memoization
// records that delta and credits it back through FastForward, keeping
// post-replay event ordering identical to a re-simulated run.
func (e *Engine) Seq() uint64 { return e.seq }

// FastForward advances the clock to at without dispatching anything,
// crediting seqDelta sequence numbers and processedDelta dispatched events
// as if the skipped window had actually run. It refuses to jump over
// pending work — an event scheduled before at would be silently reordered
// — and over the past. Iteration memoization's replay calls this from
// netsim.Sim.ApplyExit, as part of landing a recorded window's exit state;
// nothing else should.
func (e *Engine) FastForward(at Time, seqDelta, processedDelta uint64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: fast-forward to %v before now %v", at, e.now))
	}
	if ev := e.peek(); ev != nil && ev.at < at {
		panic(fmt.Sprintf("sim: fast-forward to %v over pending event at %v", at, ev.at))
	}
	e.now = at
	e.seq += seqDelta
	e.Processed += processedDelta
}
