package collective

import (
	"testing"

	"hpn/internal/netsim"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

func railOnlyNet(t *testing.T) *netsim.Sim {
	t.Helper()
	cfg := topo.SmallHPN(2, 4, 2)
	cfg.RailOnlyTier2 = true
	top, err := topo.BuildHPN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if errs := top.Validate(); len(errs) > 0 {
		t.Fatalf("%d wiring violations, first: %v", len(errs), errs[0])
	}
	return netsim.New(sim.New(), top)
}

func TestAllToAllAnyToAny(t *testing.T) {
	net := newNet(t, 2, 4, 4)
	g, err := NewGroup(net, DefaultConfig(), hostsRange(8), 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.AllToAll(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsUnreachable != 0 {
		t.Fatalf("unreachable = %d on an any-to-any fabric", res.FlowsUnreachable)
	}
	// 8 hosts x 8 rails x 7 destinations.
	if res.FlowsSent != 8*8*7 {
		t.Fatalf("sent = %d, want 448", res.FlowsSent)
	}
	if res.Elapsed <= 0 || res.BusBW <= 0 {
		t.Fatal("no timing reported")
	}
	if net.ActiveFlows() != 0 {
		t.Fatalf("%d flows leaked", net.ActiveFlows())
	}
}

func TestAllToAllRailOnlyUnreachable(t *testing.T) {
	net := railOnlyNet(t)
	g, err := NewGroup(net, DefaultConfig(), hostsRange(8), 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.AllToAll(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsUnreachable == 0 {
		t.Fatal("rail-only tier2 delivered cross-rail shards")
	}
	// Same-rail shards (1 destination rail of 8 per host pair) still work:
	// cross-segment pairs have exactly one matched-rail target each.
	if res.FlowsSent == 0 {
		t.Fatal("even same-rail shards failed")
	}
	if net.ActiveFlows() != 0 {
		t.Fatalf("%d stalled flows leaked after abort", net.ActiveFlows())
	}
}

// Rail-aligned collectives still run on rail-only tier2.
func TestRailOnlyAllReduceWorks(t *testing.T) {
	net := railOnlyNet(t)
	g, err := NewGroup(net, DefaultConfig(), hostsRange(8), 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.AllReduce(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.BusBW <= 0 {
		t.Fatal("rail-aligned AllReduce failed on rail-only tier2")
	}
}

func TestAllToAllRejectsBadInput(t *testing.T) {
	net := newNet(t, 1, 4, 4)
	g, err := NewGroup(net, DefaultConfig(), hostsRange(4), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.StartAllToAll(0, nil); err == nil {
		t.Fatal("zero-size all-to-all accepted")
	}
}
