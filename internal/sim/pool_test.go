package sim

import "testing"

// TestEventPoolRecycles checks that a fired, unpinned event's storage is
// reused by a later Schedule — the free list that keeps hot dispatch paths
// allocation-free.
func TestEventPoolRecycles(t *testing.T) {
	if checked {
		t.Skip("hpncheck builds never recycle events")
	}
	e := New()
	ev1 := e.Schedule(1, func() {})
	e.Run()
	ev2 := e.Schedule(1, func() {})
	if ev1 != ev2 {
		t.Error("fired event was not recycled into the next Schedule")
	}
	e.Run()
}

// TestEventPoolSkipsPinned checks Pin excludes an event from recycling, so
// retained handles (netsim's completion timer) stay valid after firing.
func TestEventPoolSkipsPinned(t *testing.T) {
	e := New()
	ev1 := e.Schedule(1, func() {}).Pin()
	e.Run()
	ev2 := e.Schedule(1, func() {})
	if ev1 == ev2 {
		t.Error("pinned event was recycled; its handle would alias a live event")
	}
	if ev1.Canceled() {
		t.Error("pinned handle corrupted after firing")
	}
}

// TestEventPoolSkipsCanceled checks both cancellation shapes stay out of
// the pool: canceled before firing (the heap entry is removed, the caller
// holds the handle) and canceled during its own dispatch (netsim's
// completion event cancels itself before rescheduling).
func TestEventPoolSkipsCanceled(t *testing.T) {
	e := New()
	ev := e.Schedule(1, func() {})
	e.Cancel(ev)
	e.Schedule(2, func() {})
	e.Run()
	if got := e.Schedule(3, func() {}); got == ev {
		t.Error("pre-fire-canceled event was recycled")
	}
	e.Run()

	e2 := New()
	var self *Event
	self = e2.Schedule(1, func() { e2.Cancel(self) })
	e2.Run()
	if got := e2.Schedule(2, func() {}); got == self {
		t.Error("self-canceled event was recycled; the canceler still holds the handle")
	}
	e2.Run()
}

// TestEventPoolScheduleInDispatch checks the common self-rescheduling
// pattern: an event that schedules its successor from inside its own fn
// must not receive its own storage (it is recycled only after fn returns).
func TestEventPoolScheduleInDispatch(t *testing.T) {
	e := New()
	var first, next *Event
	first = e.Schedule(1, func() {
		next = e.Schedule(1, func() {})
	})
	e.Run()
	if first == next {
		t.Error("event recycled into a successor scheduled during its own dispatch")
	}
}

// BenchmarkScheduleSteadyState measures the allocation rate of the
// schedule/fire cycle the pool exists to flatten.
func BenchmarkScheduleSteadyState(b *testing.B) {
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, func() {})
		e.Run()
	}
}
