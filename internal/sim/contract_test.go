package sim

import (
	"fmt"
	"testing"

	"hpn/internal/prof"
)

// panicked reports whether fn panics.
func panicked(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// TestHandleContract pins what Reschedule, Cancel and At promise a handle
// holder: a rescheduled event moves in time and queues after the events
// already at its new instant, a canceled one never fires (whatever its
// place in the heap), the next event reschedules like any other, and a
// reschedule into the past panics.
func TestHandleContract(t *testing.T) {
	e := New()
	var got []string
	note := func(s string) func() { return func() { got = append(got, s) } }
	a := e.Schedule(10, note("a"))
	b := e.Schedule(20, note("b"))
	c := e.Schedule(30, note("c"))
	last := e.Schedule(40, note("last"))
	if a.At() != 10 || last.At() != 40 {
		t.Fatalf("At = %v, %v; want 10, 40", a.At(), last.At())
	}
	e.Cancel(last)
	e.Schedule(20, note("x"))
	seq := e.Seq()
	if !e.Reschedule(c, 20) || !e.Reschedule(a, 25) {
		t.Fatal("a pending event did not reschedule")
	}
	if e.Seq() != seq+2 {
		t.Fatalf("two reschedules moved the sequence cursor %d, want 2", e.Seq()-seq)
	}
	if !panicked(func() { e.Reschedule(b, -1) }) {
		t.Error("a reschedule into the past did not panic")
	}
	if at, _ := e.NextAt(); at != 20 {
		t.Fatalf("next event at %v, want 20", at)
	}
	e.Run()
	if fmt.Sprint(got) != "[b x c a]" || e.Processed != 4 {
		t.Fatalf("fired %v (%d dispatches), want [b x c a] in 4", got, e.Processed)
	}
	if e.Step() {
		t.Fatal("Step on an empty engine fired something")
	}
}

// TestDaemonsKeepNoLoopAlive: with no foreground work left, no run loop
// dispatches a daemon (scheduled with a negative delay, which means now).
func TestDaemonsKeepNoLoopAlive(t *testing.T) {
	e := New()
	ticks := 0
	var tick func()
	tick = func() { ticks++; e.ScheduleDaemon(Millisecond, tick) }
	e.ScheduleDaemon(-1, tick)
	e.RunUntil(Second)
	e.RunCapped(2 * Second)
	e.RunWhile(func() bool { return true })
	if ticks != 0 || e.Now() != Second {
		t.Fatalf("daemon ticked %d times and the clock reads %v with no foreground work; want 0 and 1s", ticks, e.Now())
	}
}

// FastForward may land exactly on a pending event; only passing one is
// refused.
func TestFastForwardToPendingEvent(t *testing.T) {
	e := New()
	e.Schedule(10, func() {})
	if panicked(func() { e.FastForward(10, 0, 0) }) {
		t.Fatal("fast-forward onto a pending event's instant panicked")
	}
}

// The engine reports its loops and dispatches to an attached profiler.
func TestEngineProfilerPhases(t *testing.T) {
	e := New()
	p := prof.New()
	e.SetProfiler(p)
	for i := 0; i < 3; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	e.Schedule(1, func() {})
	e.RunUntil(Second)
	counts := map[string]int64{}
	for _, ph := range p.Snapshot() {
		counts[ph.Name] = ph.Count
	}
	if counts["sim/run"] != 2 || counts["sim/dispatch"] != 4 || counts["sim/dispatch_allocs"] != 2 {
		t.Fatalf("profiler phases %v, want 2 runs, 4 dispatches, 2 allocation-tracked loops", counts)
	}
}
