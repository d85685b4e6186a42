//go:build hpncheck

package sim

import (
	"strings"
	"testing"
)

// mustPanic runs fn and requires a panic whose message contains want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one mentioning %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v; want one mentioning %q", r, want)
		}
	}()
	fn()
}

// TestUseAfterReleasePanics keeps an unpinned event past its firing — the
// misuse that, in an unchecked build, addresses whatever event recycled
// its storage — and requires every engine entry point to refuse it.
func TestUseAfterReleasePanics(t *testing.T) {
	e := New()
	ev := e.Schedule(5, func() {})
	e.Run()
	if got := e.Schedule(1, func() {}); got == ev {
		t.Fatal("a checked build recycled a released event")
	}
	mustPanic(t, "Cancel on a released event (seq 1, fired at 5ns", func() { e.Cancel(ev) })
	mustPanic(t, "Reschedule on a released event", func() { e.Reschedule(ev, 10) })
	mustPanic(t, "Canceled on a released event", func() { ev.Canceled() })
	mustPanic(t, "Pin on a released event", func() { ev.Pin() })
	e.Run()
}

// TestPinnedAndCanceledStayLive checks the two ways a handle legitimately
// outlives its firing are never stamped.
func TestPinnedAndCanceledStayLive(t *testing.T) {
	e := New()
	pinned := e.Schedule(1, func() {}).Pin()
	canceled := e.Schedule(2, func() {})
	e.Cancel(canceled)
	e.Run()
	if pinned.Canceled() || !canceled.Canceled() {
		t.Fatal("pinned or canceled handle misreports its state")
	}
	e.Cancel(pinned)
	e.Cancel(canceled)
}
