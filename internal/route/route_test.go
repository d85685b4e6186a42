package route

import (
	"testing"
	"testing/quick"

	"hpn/internal/hashing"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

func buildSmall(t *testing.T, segments, hosts, aggs int) (*topo.Topology, *Router) {
	t.Helper()
	top, err := topo.BuildHPN(topo.SmallHPN(segments, hosts, aggs))
	if err != nil {
		t.Fatal(err)
	}
	return top, New(top)
}

func tupleFor(src, dst Endpoint, sport uint16) hashing.FiveTuple {
	return hashing.FiveTuple{
		SrcAddr: src.Addr(), DstAddr: dst.Addr(),
		SrcPort: sport, DstPort: 4791, Proto: 17,
	}
}

// Distinct endpoints hash on distinct addresses.
func TestAddrRoundTrip(t *testing.T) {
	f := func(h1, h2 uint16, n1, n2 uint8) bool {
		a := Endpoint{Host: int(h1), NIC: int(n1)}
		b := Endpoint{Host: int(h2), NIC: int(n2)}
		return (a == b) == (a.Addr() == b.Addr())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Intra-segment, same rail: exactly host -> ToR -> host (2 links).
func TestPathSameRailSameSegment(t *testing.T) {
	top, r := buildSmall(t, 1, 4, 4)
	src, dst := Endpoint{0, 3}, Endpoint{1, 3}
	tu := tupleFor(src, dst, 1000)
	p, bh, err := r.Path(src, dst, 0, tu, 0)
	if err != nil || bh {
		t.Fatalf("path err=%v blackholed=%v", err, bh)
	}
	if len(p) != 2 {
		t.Fatalf("path length = %d, want 2 (ToR-local)", len(p))
	}
	tor := top.Node(top.Link(p[0]).To)
	if tor.Kind != topo.KindToR || tor.Rail != 3 || tor.Plane != 0 {
		t.Fatalf("unexpected transit node %+v", tor)
	}
}

// Cross-segment same rail: host -> ToR -> Agg -> ToR -> host (4 links),
// never leaving the source plane.
func TestPathCrossSegmentPlaneConfinement(t *testing.T) {
	top, r := buildSmall(t, 2, 4, 4)
	src := Endpoint{0, 5}
	dst := Endpoint{4, 5} // second segment (4 hosts/segment)
	for port := 0; port < 2; port++ {
		for sport := uint16(1000); sport < 1040; sport++ {
			p, bh, err := r.Path(src, dst, port, tupleFor(src, dst, sport), 0)
			if err != nil || bh {
				t.Fatalf("path err=%v blackholed=%v", err, bh)
			}
			if len(p) != 4 {
				t.Fatalf("path length = %d, want 4", len(p))
			}
			for _, lk := range p {
				if pl := top.Link(lk).Plane; pl != port {
					t.Fatalf("port-%d flow crossed into plane %d", port, pl)
				}
			}
			// Delivered to the same-numbered destination port.
			hp, ok := top.HostPortOf(p[len(p)-1])
			if !ok || hp.Host != dst.Host || hp.NIC != dst.NIC || hp.Port != port {
				t.Fatalf("delivered to %+v, want port %d of %v", hp, port, dst)
			}
		}
	}
}

// Cross-rail traffic transits the Aggregation layer even within a segment.
func TestPathCrossRail(t *testing.T) {
	top, r := buildSmall(t, 1, 4, 4)
	src, dst := Endpoint{0, 1}, Endpoint{2, 6}
	p, bh, err := r.Path(src, dst, 0, tupleFor(src, dst, 1000), 0)
	if err != nil || bh {
		t.Fatalf("path err=%v blackholed=%v", err, bh)
	}
	if len(p) != 4 {
		t.Fatalf("cross-rail path length = %d, want 4 (via Agg)", len(p))
	}
	agg := top.Node(top.Link(p[1]).To)
	if agg.Kind != topo.KindAgg {
		t.Fatalf("second hop is %v, want agg", agg.Kind)
	}
}

// Deterministic: same tuple, same path.
func TestPathDeterministic(t *testing.T) {
	_, r := buildSmall(t, 2, 4, 4)
	src, dst := Endpoint{0, 0}, Endpoint{4, 0}
	tu := tupleFor(src, dst, 1234)
	p1, _, err1 := r.Path(src, dst, 0, tu, 0)
	p2, _, err2 := r.Path(src, dst, 0, tu, 0)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(p1) != len(p2) {
		t.Fatal("nondeterministic path")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("nondeterministic path")
		}
	}
}

// Different source ports spread across aggs (the ECMP diversity that path
// selection exploits).
func TestPathSportDiversity(t *testing.T) {
	top, r := buildSmall(t, 2, 4, 8)
	src, dst := Endpoint{0, 0}, Endpoint{4, 0}
	aggsSeen := map[topo.NodeID]bool{}
	for sport := uint16(1000); sport < 1200; sport++ {
		p, _, err := r.Path(src, dst, 0, tupleFor(src, dst, sport), 0)
		if err != nil {
			t.Fatal(err)
		}
		aggsSeen[top.Link(p[1]).To] = true
	}
	if len(aggsSeen) < 6 {
		t.Fatalf("200 sports hit only %d/8 aggs", len(aggsSeen))
	}
}

func TestPickAccessPortBalance(t *testing.T) {
	_, r := buildSmall(t, 1, 4, 4)
	src, dst := Endpoint{0, 0}, Endpoint{1, 0}
	counts := [2]int{}
	for sport := uint16(0); sport < 400; sport++ {
		p, err := r.PickAccessPort(src, dst, tupleFor(src, dst, sport), 0)
		if err != nil {
			t.Fatal(err)
		}
		counts[p]++
	}
	if counts[0] < 120 || counts[1] < 120 {
		t.Fatalf("bond port split %v too skewed", counts)
	}
}

// Access failure: before convergence flows blackhole on the dead plane;
// after convergence both the bond and the fabric avoid it.
func TestFailureConvergence(t *testing.T) {
	top, r := buildSmall(t, 2, 4, 4)
	src, dst := Endpoint{0, 2}, Endpoint{4, 2}
	dead := top.AccessLink(dst.Host, dst.NIC, 0)

	failAt := sim.Time(10 * sim.Second)
	top.SetCableState(dead, false)
	r.NoteLinkFailed(dead, failAt)

	// Pre-convergence: port 0 still selected sometimes, and its paths
	// blackhole at delivery.
	now := failAt + 100*sim.Millisecond
	sawBlackhole := false
	for sport := uint16(0); sport < 50; sport++ {
		tu := tupleFor(src, dst, sport)
		port, err := r.PickAccessPort(src, dst, tu, now)
		if err != nil {
			t.Fatal(err)
		}
		if port != 0 {
			continue
		}
		_, bh, _ := r.Path(src, dst, 0, tu, now)
		if bh {
			sawBlackhole = true
		}
	}
	if !sawBlackhole {
		t.Fatal("expected blackholes before BGP convergence")
	}

	// Post-convergence: bond avoids port 0 entirely.
	now = failAt + r.ConvergenceDelay + sim.Millisecond
	for sport := uint16(0); sport < 100; sport++ {
		tu := tupleFor(src, dst, sport)
		port, err := r.PickAccessPort(src, dst, tu, now)
		if err != nil {
			t.Fatal(err)
		}
		if port != 0 {
			continue
		}
		t.Fatal("bond still using the dead destination plane after convergence")
	}

	// Recovery restores dual-port operation.
	top.SetCableState(dead, true)
	r.NoteLinkRecovered(dead)
	ports := map[int]bool{}
	for sport := uint16(0); sport < 100; sport++ {
		p, err := r.PickAccessPort(src, dst, tupleFor(src, dst, sport), now+sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		ports[p] = true
	}
	if !ports[0] || !ports[1] {
		t.Fatalf("recovery did not restore both ports: %v", ports)
	}
}

// Local source port failure is excluded by the bond immediately.
func TestLocalFailureInstantFailover(t *testing.T) {
	top, r := buildSmall(t, 1, 4, 4)
	src, dst := Endpoint{0, 0}, Endpoint{1, 0}
	dead := top.AccessLink(src.Host, src.NIC, 1)
	top.SetCableState(dead, false)
	r.NoteLinkFailed(dead, 0)
	// Immediately after (no convergence wait): bond must avoid port 1.
	for sport := uint16(0); sport < 100; sport++ {
		p, err := r.PickAccessPort(src, dst, tupleFor(src, dst, sport), 1)
		if err != nil {
			t.Fatal(err)
		}
		if p == 1 {
			t.Fatal("bond used locally-dead port")
		}
	}
}

// Single-ToR fabric: an access failure leaves no alternative.
func TestSingleToRNoFailover(t *testing.T) {
	cfg := topo.SmallHPN(1, 4, 4)
	cfg.DualToR = false
	cfg.DualPlane = false
	top, err := topo.BuildHPN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := New(top)
	src, dst := Endpoint{0, 0}, Endpoint{1, 0}
	top.SetCableState(top.AccessLink(src.Host, src.NIC, 0), false)
	if _, err := r.PickAccessPort(src, dst, tupleFor(src, dst, 1), 0); err == nil {
		t.Fatal("single-ToR with dead access must have no live port")
	}
}

// In DCN+ (single-plane), a converged remote failure reroutes intra-segment
// traffic up through the Agg to the surviving ToR (§4.2 Figure 8b).
func TestDCNIntraSegmentReroute(t *testing.T) {
	top, err := topo.BuildDCN(topo.SmallDCN(1))
	if err != nil {
		t.Fatal(err)
	}
	r := New(top)
	src, dst := Endpoint{0, 0}, Endpoint{1, 0}
	dead := top.AccessLink(dst.Host, dst.NIC, 0)
	top.SetCableState(dead, false)
	r.NoteLinkFailed(dead, 0)

	now := r.ConvergenceDelay + sim.Millisecond
	// Source port 0 lands on ToR0, which no longer holds dst's /32: the
	// path must climb to an Agg and come back down via ToR1.
	p, bh, err := r.Path(src, dst, 0, tupleFor(src, dst, 7), now)
	if err != nil || bh {
		t.Fatalf("reroute failed: err=%v blackholed=%v path=%v", err, bh, p)
	}
	if len(p) != 4 {
		t.Fatalf("rerouted path length = %d, want 4 (via Agg)", len(p))
	}
	hp, ok := top.HostPortOf(p[len(p)-1])
	if !ok || hp.Port != 1 {
		t.Fatalf("delivered to port %d, want surviving port 1", hp.Port)
	}
}

// ToR crash: after convergence all paths avoid the dead ToR.
func TestToRCrash(t *testing.T) {
	top, r := buildSmall(t, 2, 4, 4)
	src, dst := Endpoint{0, 0}, Endpoint{4, 0}
	tor := top.Link(top.AccessLink(0, 0, 0)).To // src's rail-0 plane-0 ToR
	top.SetNodeState(tor, false)
	r.NoteNodeFailed(tor, 0)
	now := r.ConvergenceDelay + sim.Millisecond
	for sport := uint16(0); sport < 50; sport++ {
		tu := tupleFor(src, dst, sport)
		port, err := r.PickAccessPort(src, dst, tu, now)
		if err != nil {
			t.Fatal(err)
		}
		p, bh, err := r.Path(src, dst, port, tu, now)
		if err != nil || bh {
			t.Fatalf("path after ToR crash: err=%v bh=%v", err, bh)
		}
		for _, lk := range p {
			l := top.Link(lk)
			if l.From == tor || l.To == tor {
				t.Fatal("path still traverses crashed ToR")
			}
		}
	}
}

// Multi-pod HPN: cross-pod paths transit the Core and stay in-plane, and
// the Core's per-port hash ignores the 5-tuple.
func TestCrossPodPerPortHash(t *testing.T) {
	cfg := topo.SmallHPN(1, 4, 4)
	cfg.Pods = 2
	cfg.AggCoreUplinks = 2
	top, err := topo.BuildHPN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := New(top)
	src, dst := Endpoint{0, 0}, Endpoint{4, 0} // pod 0 -> pod 1
	if top.Hosts[dst.Host].Pod != 1 {
		t.Fatalf("host 4 in pod %d, want 1", top.Hosts[dst.Host].Pod)
	}
	// For a fixed path up to the core, the core egress must not vary with
	// the tuple. Group flows by their core-ingress link and check each
	// group leaves on one egress.
	egressByIngress := map[topo.LinkID]map[topo.LinkID]bool{}
	for sport := uint16(0); sport < 300; sport++ {
		p, bh, err := r.Path(src, dst, 0, tupleFor(src, dst, sport), 0)
		if err != nil || bh {
			t.Fatalf("cross-pod path: err=%v bh=%v", err, bh)
		}
		if len(p) != 6 {
			t.Fatalf("cross-pod path length = %d, want 6", len(p))
		}
		coreIn, coreOut := p[2], p[3]
		if top.Node(top.Link(coreIn).To).Kind != topo.KindCore {
			t.Fatal("third hop not a core")
		}
		m := egressByIngress[coreIn]
		if m == nil {
			m = map[topo.LinkID]bool{}
			egressByIngress[coreIn] = m
		}
		m[coreOut] = true
		for _, lk := range p {
			if top.Link(lk).Plane != 0 {
				t.Fatal("cross-pod flow left its plane")
			}
		}
	}
	for in, outs := range egressByIngress {
		if len(outs) != 1 {
			t.Fatalf("core ingress %d spread over %d egresses; per-port hash must pin one", in, len(outs))
		}
	}
}

func TestGroupSizeAtToR(t *testing.T) {
	_, r := buildSmall(t, 2, 4, 4)
	if got := r.GroupSizeAtToR(0, 0, 0); got != 4 {
		t.Fatalf("ToR group size = %d, want 4 (aggs per plane)", got)
	}
}

// Property: on a healthy fabric, every sampled path is valley-free (tiers
// rise monotonically then fall), minimal for its endpoint relationship,
// loop-free, and plane-consistent.
func TestPathShapeProperty(t *testing.T) {
	top, r := buildSmall(t, 3, 6, 6)
	f := func(a, b uint16, nic uint8, sport uint16, port uint8) bool {
		src := Endpoint{Host: int(a) % 18, NIC: int(nic) % 8}
		dst := Endpoint{Host: int(b) % 18, NIC: int(nic) % 8}
		if src.Host == dst.Host {
			return true
		}
		p, bh, err := r.Path(src, dst, int(port)%2, tupleFor(src, dst, sport), 0)
		if err != nil || bh {
			return false
		}
		// Tier profile: host(0) -> up ... -> down -> host(0), no valleys.
		tier := func(n topo.NodeID) int {
			switch top.Node(n).Kind {
			case topo.KindHost:
				return 0
			case topo.KindToR:
				return 1
			case topo.KindAgg:
				return 2
			default:
				return 3
			}
		}
		rising := true
		seen := map[topo.NodeID]bool{}
		for _, lk := range p {
			l := top.Link(lk)
			if seen[l.From] {
				return false // loop
			}
			seen[l.From] = true
			up := tier(l.To) > tier(l.From)
			if up && !rising {
				return false // valley
			}
			if !up {
				rising = false
			}
		}
		// Minimality: same segment+rail = 2 links, otherwise 4 (one pod).
		sameSeg := top.Hosts[src.Host].Segment == top.Hosts[dst.Host].Segment
		want := 4
		if sameSeg && src.NIC == dst.NIC {
			want = 2
		}
		return len(p) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
