package rdma

import (
	"testing"

	"hpn/internal/hashing"
	"hpn/internal/netsim"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

func newNet(t *testing.T, segments, hosts, aggs int) (*sim.Engine, *netsim.Sim) {
	t.Helper()
	top, err := topo.BuildHPN(topo.SmallHPN(segments, hosts, aggs))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	return eng, netsim.New(eng, top)
}

func TestEstablishConnsDisjoint(t *testing.T) {
	_, net := newNet(t, 2, 4, 8)
	src, dst := route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 4, NIC: 0}
	cs, err := EstablishConns(net, src, dst, DefaultEstablishOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Conns) != 4 {
		t.Fatalf("conns = %d, want 4", len(cs.Conns))
	}
	if !cs.Disjoint() {
		t.Fatal("Algorithm 1 postcondition violated: paths overlap")
	}
	// Two per plane under dual-plane.
	perPlane := map[int32]int{}
	for _, c := range cs.Conns {
		perPlane[c.Route.Port]++
	}
	if perPlane[0] != 2 || perPlane[1] != 2 {
		t.Fatalf("plane spread = %v, want 2+2", perPlane)
	}
	if cs.Probes == 0 {
		t.Fatal("no probes recorded")
	}
}

// With only one agg per plane there is exactly one fabric path per plane:
// the sweep must cap at one connection per plane rather than fabricate
// overlapping "disjoint" paths.
func TestEstablishConnsLimitedDiversity(t *testing.T) {
	_, net := newNet(t, 2, 4, 1)
	src, dst := route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 4, NIC: 0}
	cs, err := EstablishConns(net, src, dst, DefaultEstablishOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Conns) != 2 {
		t.Fatalf("conns = %d, want 2 (one per plane)", len(cs.Conns))
	}
	if !cs.Disjoint() {
		t.Fatal("paths overlap")
	}
}

func TestLeastWQESelection(t *testing.T) {
	eng, net := newNet(t, 2, 4, 8)
	src, dst := route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 4, NIC: 0}
	cs, err := EstablishConns(net, src, dst, DefaultEstablishOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Dispatch 8 equal messages without letting any complete: Algorithm 2
	// must rotate across all 4 connections (the least-loaded is always a
	// fresh one).
	for i := 0; i < 8; i++ {
		if _, err := cs.Send(1<<20, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cs.Conns {
		if c.SentBytes != 2<<20 {
			t.Fatalf("conn sent %v, want even 2MiB spread", c.SentBytes)
		}
	}
	outstanding := func() float64 {
		sum := 0.0
		for _, c := range cs.Conns {
			sum += c.wqeBytes
		}
		return sum
	}
	if outstanding() != 8<<20 {
		t.Fatalf("outstanding = %v, want 8MiB", outstanding())
	}
	eng.Run()
	if outstanding() != 0 {
		t.Fatalf("WQE counter leak: %v outstanding after drain", outstanding())
	}
}

// The WQE counter is a congestion signal: when one connection's path is
// congested by background traffic, Algorithm 2 shifts load away from it.
func TestWQECongestionAvoidance(t *testing.T) {
	eng, net := newNet(t, 2, 8, 2)
	src, dst := route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 8, NIC: 0}
	cs, err := EstablishConns(net, src, dst, EstablishOpts{Conns: 4, MaxSweep: 256, SportBase: 40000})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Conns) < 3 {
		t.Fatalf("conns = %d, want >=3", len(cs.Conns))
	}
	// Congest conn 0's ToR->Agg hop with enough foreign 200G senders that
	// the 400G fabric link's fair share drops below the victim's access
	// share.
	victim := cs.Conns[0]
	aggLink := victim.Route.Path[1]
	hogs := 0
	for h := 1; h < 8 && hogs < 5; h++ {
		hog := route.Endpoint{Host: h, NIC: 0}
		hogDst := route.Endpoint{Host: 8 + h, NIC: 0}
		for sport := uint16(30000); sport < 31000; sport++ {
			tu := tupleHelper(hog, hogDst, sport)
			p, _, err := net.R.Path(hog, hogDst, int(victim.Route.Port), tu, 0)
			if err != nil {
				continue
			}
			if p[1] == aggLink {
				if _, err := net.StartFlow(hog, hogDst, 64<<30, netsim.FlowOpts{SrcPort: int(victim.Route.Port), Sport: sport}); err != nil {
					t.Fatal(err)
				}
				hogs++
				break
			}
		}
	}
	if hogs < 4 {
		t.Fatalf("placed only %d hog flows on the victim link", hogs)
	}
	// Stream messages; completions gate new sends (closed loop).
	sent := map[*Conn]float64{}
	var pump func(now sim.Time)
	total := 0
	pump = func(now sim.Time) {
		if total >= 64 {
			return
		}
		total++
		c := cs.pick()
		sent[c] += 1
		if _, err := cs.Send(8<<20, pump); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		pump(0)
	}
	eng.Run()
	if sent[victim] >= float64(total)/float64(len(cs.Conns)) {
		t.Fatalf("congested conn got %v of %d messages; Algorithm 2 should starve it", sent[victim], total)
	}
}

func tupleHelper(src, dst route.Endpoint, sport uint16) hashing.FiveTuple {
	return hashing.FiveTuple{
		SrcAddr: src.Addr(), DstAddr: dst.Addr(),
		SrcPort: sport, DstPort: 4791, Proto: 17,
	}
}

func TestSendOnPinsConnection(t *testing.T) {
	eng, net := newNet(t, 2, 4, 4)
	src, dst := route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 4, NIC: 0}
	cs, err := EstablishConns(net, src, dst, DefaultEstablishOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := cs.SendOn(1, 1<<20, nil); err != nil {
			t.Fatal(err)
		}
	}
	if cs.Conns[1].SentBytes != 6<<20 {
		t.Fatalf("pinned conn sent %v", cs.Conns[1].SentBytes)
	}
	eng.Run()
}

func TestEstablishConnsErrors(t *testing.T) {
	_, net := newNet(t, 1, 2, 2)
	src, dst := route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 1, NIC: 0}
	if _, err := EstablishConns(net, src, dst, EstablishOpts{Conns: 0}); err == nil {
		t.Fatal("zero conns accepted")
	}
	// Kill every access port of dst: establishment must fail.
	for p := 0; p < 2; p++ {
		net.FailCable(net.Top.AccessLink(dst.Host, dst.NIC, p))
	}
	// Let convergence pass so paths are truly gone.
	net.Eng.RunUntil(5 * sim.Second)
	if _, err := EstablishConns(net, src, dst, DefaultEstablishOpts()); err == nil {
		t.Fatal("established conns to unreachable peer")
	}
}
