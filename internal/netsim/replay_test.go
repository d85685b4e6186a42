package netsim

import (
	"testing"

	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/telemetry"
)

func TestHasher(t *testing.T) {
	a, b := NewHasher(), NewHasher()
	for _, v := range []uint64{1, 2, 3} {
		a.Mix(v)
		b.Mix(v)
	}
	if a.Sum() != b.Sum() {
		t.Fatal("identical mix sequences hash differently")
	}
	c := NewHasher()
	for _, v := range []uint64{3, 2, 1} {
		c.Mix(v)
	}
	if c.Sum() == a.Sum() {
		t.Fatal("hash is order-insensitive; schedule permutations would collide")
	}
}

// A replay lands on ApplyExit once per iteration, so it must not allocate:
// a long memoized run replays thousands of windows.
func TestApplyExitAllocatesNothing(t *testing.T) {
	eng, _, s := newSim(t, 1, 4, 4)
	reg := telemetry.NewRegistry()
	s.AttachTelemetry(nil, reg, "")
	s.EnableInband(0)
	m, ok := s.Mark()
	if !ok {
		t.Fatal("idle simulator refused a mark")
	}
	base := reg.Values(nil)
	for src := 0; src < 2; src++ {
		if _, err := s.StartFlow(route.Endpoint{Host: src, NIC: 0}, route.Endpoint{Host: 2, NIC: 0},
			1<<20, FlowOpts{SrcPort: 0, Sport: uint16(1000 + src)}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	moved := reg.Values(nil)
	for i, v := range base {
		moved[i] -= v
	}
	x := s.ExitFrom(m, moved)
	if x == nil {
		t.Fatal("drained window refused its exit")
	}
	if len(x.residual) == 0 {
		t.Fatal("incast left no in-band residual: the restore path is untested")
	}
	if n := testing.AllocsPerRun(100, func() { s.ApplyExit(x) }); n != 0 {
		t.Fatalf("ApplyExit allocates %v objects per call, want 0", n)
	}
}

// ExitFrom refuses a window that moved the transport-sport cursor, since
// auto-assigned ports are not periodic. This guard covers StateHash64's
// sport term: a cached window assigned no port, so its outcome does not
// depend on the cursor it starts from.
func TestExitFromRefusesMovedSportCursor(t *testing.T) {
	eng, _, s := newSim(t, 1, 4, 4)
	src, dst := route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 1, NIC: 0}
	for _, sport := range []uint16{0, 1000} {
		m, ok := s.Mark()
		if !ok {
			t.Fatal("idle simulator refused a mark")
		}
		if _, err := s.StartFlow(src, dst, 1<<20, FlowOpts{SrcPort: -1, Sport: sport}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if x := s.ExitFrom(m, nil); (x == nil) != (sport == 0) {
			t.Errorf("window of a flow on sport %d: exit %v, want one only for a pinned port", sport, x)
		}
	}
}

// Mark and Fits refuse while a flow is active. This covers StateHash64's
// active-flow terms: a window opens and replays only on a drained fabric,
// so at every lookup that can hit, the active-flow multiset is empty.
func TestMarkAndFitsRefuseActiveFlows(t *testing.T) {
	eng, _, s := newSim(t, 1, 4, 4)
	m, _ := s.Mark()
	x := s.ExitFrom(m, nil)
	if x == nil || !s.Fits(x) {
		t.Fatal("an empty window on an idle simulator does not fit")
	}
	if _, err := s.StartFlow(route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 1, NIC: 0}, 1<<20,
		FlowOpts{SrcPort: -1, Sport: 1000}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Mark(); ok {
		t.Error("Mark accepted a window start with a flow active")
	}
	if s.Fits(x) {
		t.Error("Fits accepted a replay with a flow active")
	}
	eng.Run()
	if !s.Fits(x) {
		t.Error("Fits refused a replay once the flow drained")
	}
}

// StateHash64 folds in the observed links' residual queues, which link
// holds each, and the time since they were last integrated: a window that
// starts behind a standing queue integrates what is left of it into its
// flows' in-band residency, so two starts that differ in any of these must
// not share a key.
func TestStateHashCoversResidualQueue(t *testing.T) {
	eng, top, s := newSim(t, 1, 4, 4)
	s.EnableInband(0)
	for src := 1; src <= 2; src++ {
		if _, err := s.StartFlow(route.Endpoint{Host: src, NIC: 0}, route.Endpoint{Host: 0, NIC: 0}, 1<<20,
			FlowOpts{SrcPort: 0, Sport: uint16(1000 + src)}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	down := top.Link(top.AccessLink(0, 0, 0)).Reverse
	o := &s.obs[down]
	if !o.live || o.queue <= 0 {
		t.Fatal("the incast left no residual queue on its delivery link")
	}
	h := s.StateHash64()
	eng.Schedule(sim.Millisecond, func() {})
	eng.Run()
	if s.StateHash64() == h {
		t.Fatal("a millisecond without integration left the state hash unchanged")
	}
	h = s.StateHash64()
	o.queue /= 2
	if s.StateHash64() == h {
		t.Fatal("halving a residual queue left the state hash unchanged")
	}
	h = s.StateHash64()
	if len(s.obsLive) != 1 {
		t.Fatalf("%d observed links live, want the delivery link alone", len(s.obsLive))
	}
	other := top.AccessLink(1, 0, 0)
	s.obs[other], *o = *o, linkObs{}
	s.obsLive[0] = other
	if s.StateHash64() == h {
		t.Fatal("moving the residual queue to another link left the state hash unchanged")
	}
}
