package netsim

import (
	"testing"

	"hpn/internal/route"
	"hpn/internal/sim"
)

// TestFlowPoolRecycles checks a completed, unpinned flow's storage — its
// path buffer included — is reused by the next StartFlow, only after its
// callbacks return, and that pinned and aborted flows stay out of the pool.
func TestFlowPoolRecycles(t *testing.T) {
	if checked {
		t.Skip("hpncheck builds never recycle flows")
	}
	eng, _, s := newSim(t, 2, 4, 4)
	src, dst := route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 4, NIC: 0}
	var successor *Flow
	f, err := s.StartFlow(src, dst, 1<<20, FlowOpts{SrcPort: 0, OnComplete: func(now sim.Time, f *Flow) {
		// Started during the callback: must not receive f's own storage.
		// Pinned, so f is the only flow the pool holds afterwards.
		successor, _ = s.StartFlow(src, dst, 1<<20, FlowOpts{SrcPort: 0})
		successor.Pin()
	}})
	if err != nil {
		t.Fatal(err)
	}
	path := &f.Path[0]
	eng.Run()
	if successor == f {
		t.Fatal("flow recycled into a successor started during its own callback")
	}
	g, err := s.StartFlow(src, dst, 1<<20, FlowOpts{SrcPort: 0})
	if err != nil {
		t.Fatal(err)
	}
	if g != f || &g.Path[0] != path {
		t.Fatal("completed flow and its path buffer were not recycled into the next StartFlow")
	}
	if g.ID != 2 || g.Rate <= 0 || g.Done() {
		t.Fatalf("recycled flow carries stale state: ID %d Rate %v Done %v", g.ID, g.Rate, g.Done())
	}
	g.Pin()
	eng.Run()
	if h, _ := s.StartFlow(src, dst, 1<<20, FlowOpts{SrcPort: 0}); h == g {
		t.Fatal("pinned flow was recycled")
	}
	a, _ := s.StartFlow(src, dst, 1<<20, FlowOpts{SrcPort: 0})
	s.AbortFlow(a)
	eng.Run()
	if b, _ := s.StartFlow(src, dst, 1<<20, FlowOpts{SrcPort: 0}); b == a {
		t.Fatal("aborted flow was recycled")
	}
	eng.Run()
}

// TestFlowPoolTrimsWhenDrained checks the free list keeps every completed
// flow while others are still in flight, and is cut to flowPoolCap once
// the last active flow completes.
func TestFlowPoolTrimsWhenDrained(t *testing.T) {
	if checked {
		t.Skip("hpncheck builds never recycle flows")
	}
	eng, _, s := newSim(t, 2, 4, 4)
	src, dst := route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 4, NIC: 0}
	short := flowPoolCap + 16
	for i := 0; i < short; i++ {
		if _, err := s.StartFlow(src, dst, 1<<20, FlowOpts{SrcPort: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.StartFlow(src, dst, 1<<30, FlowOpts{SrcPort: 0}); err != nil {
		t.Fatal(err)
	}
	eng.RunWhile(func() bool { return len(s.active) > 1 })
	if len(s.active) != 1 || len(s.free) != short {
		t.Fatalf("with one flow in flight: %d active, %d pooled; want 1 and %d", len(s.active), len(s.free), short)
	}
	eng.Run()
	if len(s.active) != 0 || len(s.free) != flowPoolCap {
		t.Fatalf("drained: %d active, %d pooled; want 0 and %d", len(s.active), len(s.free), flowPoolCap)
	}
}
