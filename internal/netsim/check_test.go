//go:build hpncheck

package netsim

import (
	"math"
	"strings"
	"testing"

	"hpn/internal/route"
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

// TestUseAfterRecyclePanics keeps an unpinned flow past its completion —
// the misuse that, in an unchecked build, addresses whichever flow reused
// its storage — and requires every netsim entry point to refuse it and its
// fields to read as poison.
func TestUseAfterRecyclePanics(t *testing.T) {
	eng, _, s := newSim(t, 2, 4, 4)
	src, dst := route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 4, NIC: 0}
	f, err := s.StartFlow(src, dst, 1<<20, FlowOpts{SrcPort: 0})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if g, _ := s.StartFlow(src, dst, 1<<20, FlowOpts{SrcPort: 0}); g == f {
		t.Fatal("a checked build recycled a released flow")
	}
	if !math.IsNaN(f.Remaining) || len(f.Path) != 0 || f.ID != -1 {
		t.Fatalf("released flow not poisoned: ID %d Remaining %v Path %v", f.ID, f.Remaining, f.Path)
	}
	mustPanic(t, "AbortFlow on a released flow (flow 0, completed at", func() { s.AbortFlow(f) })
	mustPanic(t, "Done on a released flow", func() { f.Done() })
	mustPanic(t, "Pin on a released flow", func() { f.Pin() })
	mustPanic(t, "route on a released flow", func() { s.routeFlow(f) })
	eng.Run()
}

// TestPinnedAndAbortedFlowsStayLive checks the two ways a flow handle
// legitimately outlives the flow are never stamped.
func TestPinnedAndAbortedFlowsStayLive(t *testing.T) {
	eng, _, s := newSim(t, 2, 4, 4)
	src, dst := route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 4, NIC: 0}
	pinned, err := s.StartFlow(src, dst, 1<<20, FlowOpts{SrcPort: 0})
	if err != nil {
		t.Fatal(err)
	}
	pinned.Pin()
	aborted, err := s.StartFlow(src, dst, 1<<20, FlowOpts{SrcPort: 0})
	if err != nil {
		t.Fatal(err)
	}
	s.AbortFlow(aborted)
	eng.Run()
	if !pinned.Done() || !aborted.Done() || pinned.DoneAt == 0 {
		t.Fatal("pinned or aborted flow misreports its state")
	}
	s.AbortFlow(pinned)
	s.AbortFlow(aborted)
}
