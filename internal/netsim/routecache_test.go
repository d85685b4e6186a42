package netsim

import (
	"slices"
	"strings"
	"testing"

	"hpn/internal/hashing"
	"hpn/internal/route"
	"hpn/internal/sim"
)

// establish returns the Route of a connection on sport and the path
// src->dst walks on port for it, as an RDMA connection holds it.
func establish(t *testing.T, s *Sim, src, dst route.Endpoint, port int, sport uint16) *Route {
	t.Helper()
	tuple := hashing.FiveTuple{SrcAddr: src.Addr(), DstAddr: dst.Addr(), SrcPort: sport, DstPort: 4791, Proto: 17}
	path, blackholed, err := s.R.Path(src, dst, port, tuple, s.Eng.Now())
	if err != nil || blackholed {
		t.Fatalf("establish %v->%v: blackholed %v, %v", src, dst, blackholed, err)
	}
	return &Route{Path: path, Port: int32(port), Sport: sport}
}

// TestRouteCacheStamps follows one connection route through the cache's
// states: stamped by a walk that confirms it, invalidated by a usability
// change and by a pending convergence, never stamped while the walk
// yields another path, and never consulted when hop decisions are wanted.
func TestRouteCacheStamps(t *testing.T) {
	eng, top, s := newSim(t, 2, 4, 4)
	src, dst := route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 4, NIC: 0}
	rt := establish(t, s, src, dst, 0, 50000)
	opt := FlowOpts{SrcPort: 0, Route: rt}
	start := func() *Flow {
		t.Helper()
		f, err := s.StartFlow(src, dst, 1<<20, opt)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	stamped := func() bool { return rt.gen == uint32(top.Gen())+1 }

	f := start()
	if !stamped() || !slices.Equal(f.Path, rt.Path) || f.Port != 0 {
		t.Fatalf("confirming walk left gen %d (topology %d), path %v port %d; want stamp, %v port 0",
			rt.gen, top.Gen(), f.Path, f.Port, rt.Path)
	}
	if g := start(); &g.Path[0] == &rt.Path[0] || !slices.Equal(g.Path, rt.Path) {
		t.Fatal("a hit must copy the route's path into the flow's own buffer")
	}
	eng.Run()

	// A failure off the route bumps the generation: the next flow walks
	// again (pending convergence, so it may not stamp) and the stamp
	// returns once the router settles.
	off := top.AccessLink(7, 0, 1)
	s.FailCable(off)
	if stamped() || s.R.Settled(eng.Now()) {
		t.Fatal("a fabric transition left the route stamped or the router settled")
	}
	start()
	if stamped() {
		t.Fatal("stamped while a convergence was pending")
	}
	eng.Run()
	if !s.R.Settled(eng.Now()) {
		t.Fatal("router not settled after its convergence delay")
	}
	start()
	if !stamped() {
		t.Fatal("settled walk on the established path did not stamp")
	}
	eng.Run()

	// Raising the convergence delay reopens the failure's window.
	s.R.ConvergenceDelay = eng.Now() + sim.Second
	if s.R.Settled(eng.Now()) {
		t.Fatal("Settled ignores a raised ConvergenceDelay")
	}
	s.R.ConvergenceDelay = sim.Second
	s.RecoverCable(off)
	eng.Run()

	// The route's own access link fails: the flow fails over to port 1,
	// so the walk never confirms the route and nothing is stamped.
	s.FailCable(top.AccessLink(0, 0, 0))
	eng.Run()
	if f := start(); f.Port != 1 || stamped() {
		t.Fatalf("failover flow on port %d, stamped %v; want port 1, unstamped", f.Port, stamped())
	}
	eng.Run()
	s.RecoverCable(top.AccessLink(0, 0, 0))
	eng.Run()
	start()
	eng.Run()
	if !stamped() {
		t.Fatal("route not stamped again after its link recovered")
	}

	// Hop decisions wanted: the walk runs and publishes even on a stamp.
	var routed int
	s2 := New(sim.New(), top)
	s2.Subscribe(countRouted{&routed})
	rt2 := establish(t, s2, src, dst, 0, 50000)
	for i := 0; i < 2; i++ {
		if _, err := s2.StartFlow(src, dst, 1<<20, FlowOpts{SrcPort: 0, Route: rt2}); err != nil {
			t.Fatal(err)
		}
	}
	if routed != 2 || rt2.gen != 0 {
		t.Fatalf("with an EvFlowRouted subscriber: %d routed events, gen %d; want 2 and an unused route", routed, rt2.gen)
	}
}

type countRouted struct{ n *int }

func (countRouted) Kinds() EventKind       { return EvFlowRouted }
func (c countRouted) FabricEvent(e *Event) { *c.n++ }

// A cable or switch recovered inside its convergence delay clears its
// failure at once: the router is settled again, so walks stamp routes
// without waiting out a delay for a link that is back.
func TestRecoveryInsideConvergenceSettles(t *testing.T) {
	eng, top, s := newSim(t, 2, 4, 4)
	l := top.AccessLink(7, 0, 1)
	for _, c := range []struct {
		name          string
		fail, recover func()
	}{
		{"cable", func() { s.FailCable(l) }, func() { s.RecoverCable(l) }},
		{"switch", func() { s.FailNode(top.Link(l).To) }, func() { s.RecoverNode(top.Link(l).To) }},
	} {
		c.fail()
		if s.R.Settled(eng.Now()) {
			t.Fatalf("router settled with a %s convergence pending", c.name)
		}
		c.recover()
		if !s.R.Settled(eng.Now()) {
			t.Fatalf("recovering the only failed %s left the router unsettled", c.name)
		}
	}
}

// TestStartFlowRouteMisuse requires StartFlow to refuse a Route on a flow
// whose port cannot match it, before a flow is taken.
func TestStartFlowRouteMisuse(t *testing.T) {
	_, _, s := newSim(t, 2, 4, 4)
	src, dst := route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 4, NIC: 0}
	rt := establish(t, s, src, dst, 0, 50000)
	for _, c := range []struct {
		name string
		opt  FlowOpts
		want string
	}{
		{"other port", FlowOpts{SrcPort: 1, Route: rt}, "pins port 1 but its Route is on port 0"},
		{"bond port", FlowOpts{SrcPort: -1, Route: rt}, "pins port -1"},
	} {
		f, err := s.StartFlow(src, dst, 1<<20, c.opt)
		if f != nil || err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: StartFlow = %v, %v; want an error mentioning %q", c.name, f, err, c.want)
		}
	}
	if s.ActiveFlows() != 0 || rt.gen != 0 {
		t.Fatalf("refused flows left %d active, route gen %d", s.ActiveFlows(), rt.gen)
	}
}
