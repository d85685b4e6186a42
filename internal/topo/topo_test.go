package topo

import (
	"testing"
	"testing/quick"
)

// mustValidate fails the test on the first wiring violation.
func mustValidate(t *testing.T, top *Topology) {
	t.Helper()
	if errs := top.Validate(); len(errs) > 0 {
		t.Fatalf("%d wiring violations, first: %v", len(errs), errs[0])
	}
}

func TestBuildHPNProductionScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full 15K-GPU build")
	}
	top, err := BuildHPN(DefaultHPN())
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, top)

	c := top.Count()
	if got := top.TotalGPUs(true); got != 15360 {
		t.Errorf("active GPUs = %d, want 15360", got)
	}
	if got := top.TotalGPUs(false); got != 15*136*8 {
		t.Errorf("total GPUs = %d, want %d", got, 15*136*8)
	}
	// 16 ToRs per segment x 15 segments.
	if c.ToRs != 240 {
		t.Errorf("ToRs = %d, want 240", c.ToRs)
	}
	// 60 Aggs per plane x 2 planes.
	if c.Aggs != 120 {
		t.Errorf("Aggs = %d, want 120", c.Aggs)
	}
	if c.Cores != 0 {
		t.Errorf("single-pod HPN should have no cores, got %d", c.Cores)
	}

	// Every ToR: 136 host-facing downlinks, 60 agg-facing uplinks.
	for _, n := range top.Nodes {
		if n.Kind != KindToR {
			continue
		}
		if len(n.Downlinks) != 136 {
			t.Fatalf("ToR %s has %d downlinks, want 136", n.Name, len(n.Downlinks))
		}
		if len(n.Uplinks) != 60 {
			t.Fatalf("ToR %s has %d uplinks, want 60", n.Name, len(n.Uplinks))
		}
	}
	// Every Agg: 120 ToR-facing downlinks (15 segments x 8 ToRs in plane).
	for _, n := range top.Nodes {
		if n.Kind != KindAgg {
			continue
		}
		if len(n.Downlinks) != 120 {
			t.Fatalf("Agg %s has %d downlinks, want 120", n.Name, len(n.Downlinks))
		}
	}
}

func TestHPNOversubscription(t *testing.T) {
	cfg := DefaultHPN()
	got := OversubscriptionToR(cfg)
	if got < 1.0 || got > 1.1 {
		t.Errorf("ToR oversubscription = %v, want ~1.067", got)
	}
	if agg := OversubscriptionAggCore(cfg); agg != 15 {
		t.Errorf("Agg-Core oversubscription = %v, want 15", agg)
	}
}

func TestHPNPlaneDisjoint(t *testing.T) {
	top, err := BuildHPN(SmallHPN(2, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, top)
	if top.Planes != 2 {
		t.Fatalf("planes = %d", top.Planes)
	}
	// NIC port p lands on a plane-p ToR.
	for _, h := range top.Hosts {
		for _, nic := range h.NICs {
			for pi, lk := range nic.Ports {
				tor := top.Node(top.Link(lk).To)
				if tor.Plane != pi {
					t.Fatalf("port %d landed in plane %d", pi, tor.Plane)
				}
			}
		}
	}
}

func TestHPNSingleToR(t *testing.T) {
	cfg := SmallHPN(1, 4, 4)
	cfg.DualToR = false
	cfg.DualPlane = false
	top, err := BuildHPN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, top)
	for _, h := range top.Hosts {
		for _, nic := range h.NICs {
			if len(nic.Ports) != 1 {
				t.Fatalf("single-ToR NIC has %d ports", len(nic.Ports))
			}
			if got := top.Link(nic.Ports[0]).CapBps; got != 400e9 {
				t.Fatalf("single-ToR access speed = %v, want 400G aggregate", got)
			}
		}
	}
}

func TestHPNDualPlaneRequiresDualToR(t *testing.T) {
	cfg := SmallHPN(1, 2, 2)
	cfg.DualToR = false
	cfg.DualPlane = true
	if _, err := BuildHPN(cfg); err == nil {
		t.Fatal("dual-plane without dual-ToR must be rejected")
	}
}

func TestHPNSinglePlaneClos(t *testing.T) {
	cfg := SmallHPN(2, 4, 4)
	cfg.DualPlane = false // typical Clos tier2 (Figure 12a)
	top, err := BuildHPN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, top)
	if top.Planes != 1 {
		t.Fatalf("planes = %d, want 1", top.Planes)
	}
	// Both ToRs of a dual-ToR set connect to the same aggs.
	a := top.Link(top.AccessLink(0, 0, 0)).To
	b := top.Link(top.AccessLink(0, 0, 1)).To
	aggsOf := func(id NodeID) map[NodeID]bool {
		m := map[NodeID]bool{}
		for _, lk := range top.Node(id).Uplinks {
			m[top.Link(lk).To] = true
		}
		return m
	}
	am, bm := aggsOf(a), aggsOf(b)
	if len(am) != len(bm) {
		t.Fatal("asymmetric agg sets")
	}
	for k := range am {
		if !bm[k] {
			t.Fatal("single-plane ToR pair must share the agg set")
		}
	}
}

func TestHPNMultiPodHasCores(t *testing.T) {
	cfg := SmallHPN(1, 2, 4)
	cfg.Pods = 2
	cfg.AggCoreUplinks = 2
	top, err := BuildHPN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, top)
	c := top.Count()
	if c.Cores == 0 {
		t.Fatal("multi-pod HPN must have cores")
	}
	for _, n := range top.Nodes {
		if n.Kind == KindCore && !n.PerPortHash {
			t.Fatal("HPN cores must use per-port hashing (§7)")
		}
	}
	// Aggs have the configured number of uplinks.
	for _, n := range top.Nodes {
		if n.Kind == KindAgg && len(n.Uplinks) != 2 {
			t.Fatalf("agg uplinks = %d, want 2", len(n.Uplinks))
		}
	}
}

func TestBuildDCN(t *testing.T) {
	top, err := BuildDCN(SmallDCN(2))
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, top)
	c := top.Count()
	// 2 pods x 4 segments x 16 hosts.
	if c.Hosts != 128 {
		t.Errorf("hosts = %d, want 128", c.Hosts)
	}
	if got := top.TotalGPUs(false); got != 1024 {
		t.Errorf("GPUs = %d, want 1024 (512/pod)", got)
	}
	if c.ToRs != 16 {
		t.Errorf("ToRs = %d, want 16", c.ToRs)
	}
	if c.Aggs != 16 {
		t.Errorf("Aggs = %d, want 16 (8/pod)", c.Aggs)
	}
	// ToR: 128 host downlinks, 64 uplinks (8 links x 8 aggs).
	for _, n := range top.Nodes {
		if n.Kind != KindToR {
			continue
		}
		if len(n.Downlinks) != 128 || len(n.Uplinks) != 64 {
			t.Fatalf("ToR %s: %d down / %d up, want 128/64", n.Name, len(n.Downlinks), len(n.Uplinks))
		}
	}
	// Legacy hash: all switches share a seed.
	var seed uint64
	first := true
	for _, n := range top.Nodes {
		if n.Kind == KindHost {
			continue
		}
		if first {
			seed, first = n.HashSeed, false
		} else if n.HashSeed != seed {
			t.Fatal("DCN+ switches must share the legacy hash seed")
		}
	}
}

func TestDCNFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("16K-GPU build")
	}
	top, err := BuildDCN(DefaultDCN())
	if err != nil {
		t.Fatal(err)
	}
	if got := top.TotalGPUs(false); got != 16384 {
		t.Errorf("DCN+ GPUs = %d, want 16384", got)
	}
}

func TestHPNUniqueSeeds(t *testing.T) {
	top, err := BuildHPN(SmallHPN(2, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[uint64]bool{}
	for _, n := range top.Nodes {
		if n.Kind == KindHost {
			continue
		}
		if seeds[n.HashSeed] {
			t.Fatal("duplicate switch hash seed in HPN")
		}
		seeds[n.HashSeed] = true
	}
}

func TestBuildFrontend(t *testing.T) {
	cfg := DefaultFrontend()
	top, err := BuildFrontend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, top)
	wantHosts := cfg.Segments*cfg.HostsPerSegment + cfg.StorageHosts
	if len(top.Hosts) != wantHosts {
		t.Fatalf("frontend hosts = %d, want %d", len(top.Hosts), wantHosts)
	}
	if cfg.StorageHostStart() != cfg.Segments*cfg.HostsPerSegment {
		t.Fatal("storage host start index wrong")
	}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("Table1 rows = %d", len(rows))
	}
	if rows[0].SearchSpace != 60 {
		t.Errorf("HPN search space = %d, want 60", rows[0].SearchSpace)
	}
	if rows[1].SearchSpace != 4096 {
		t.Errorf("SuperPod = %d, want 4096", rows[1].SearchSpace)
	}
	if rows[2].SearchSpace != 2048 {
		t.Errorf("Jupiter = %d, want 2048", rows[2].SearchSpace)
	}
	if rows[3].SearchSpace != 2304 {
		t.Errorf("fat tree = %d, want 2304", rows[3].SearchSpace)
	}
	if rows[0].GPUs != 15360 {
		t.Errorf("HPN pod GPUs = %d, want 15360", rows[0].GPUs)
	}
	// HPN must be 1-2 orders of magnitude smaller than all 3-tier fabrics.
	for _, r := range rows[1:] {
		ratio := float64(r.SearchSpace) / float64(rows[0].SearchSpace)
		if ratio < 10 || ratio > 100 {
			t.Errorf("%s reduction ratio %v outside 1-2 magnitudes", r.Arch, ratio)
		}
	}
}

func TestTable2(t *testing.T) {
	rows := Table2()
	want := []struct{ t1, t2 int }{
		{64, 2048}, {128, 4096}, {1024, 4096}, {1024, 8192}, {1024, 15360},
	}
	if len(rows) != len(want) {
		t.Fatalf("Table2 rows = %d", len(rows))
	}
	for i, w := range want {
		if rows[i].Tier1GPUs != w.t1 || rows[i].Tier2GPUs != w.t2 {
			t.Errorf("row %d (%s) = %d/%d, want %d/%d",
				i, rows[i].Mechanism, rows[i].Tier1GPUs, rows[i].Tier2GPUs, w.t1, w.t2)
		}
	}
}

func TestTable4(t *testing.T) {
	rows := Table4()
	if rows[0].GPUsPerPod != 15360 || rows[0].Tier2Planes != 2 {
		t.Errorf("any-to-any: %+v", rows[0])
	}
	if rows[1].GPUsPerPod != 122880 || rows[1].Tier2Planes != 16 {
		t.Errorf("rail-only: %+v", rows[1])
	}
}

func TestLinkAndNodeState(t *testing.T) {
	top, err := BuildHPN(SmallHPN(1, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	lk := top.AccessLink(0, 0, 0)
	accessUp := func() bool { l := top.Link(lk); return l.Up && top.Node(l.To).Up }
	if !accessUp() {
		t.Fatal("fresh link should be up")
	}
	top.SetCableState(lk, false)
	if accessUp() {
		t.Fatal("downed link should report down")
	}
	if top.Link(top.Link(lk).Reverse).Up {
		t.Fatal("cable state must affect both directions")
	}
	top.SetCableState(lk, true)
	tor := top.Link(lk).To
	top.SetNodeState(tor, false)
	if accessUp() {
		t.Fatal("link to crashed ToR should report down")
	}
	if top.LinkUsable(lk) {
		t.Fatal("LinkUsable must consider node state")
	}
}

// Property: for any small HPN shape, the build validates and the GPU count
// equals segments x hosts x rails.
func TestHPNShapeProperty(t *testing.T) {
	f := func(segRaw, hostRaw, aggRaw uint8) bool {
		segs := int(segRaw%3) + 1
		hosts := int(hostRaw%6) + 1
		aggs := int(aggRaw%4) + 1
		top, err := BuildHPN(SmallHPN(segs, hosts, aggs))
		if err != nil {
			return false
		}
		if errs := top.Validate(); len(errs) > 0 {
			return false
		}
		return top.TotalGPUs(false) == segs*hosts*8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHostPortOf(t *testing.T) {
	top, err := BuildHPN(SmallHPN(1, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	up := top.AccessLink(1, 3, 1)
	down := top.Link(up).Reverse
	hp, ok := top.HostPortOf(down)
	if !ok || hp.Host != 1 || hp.NIC != 3 || hp.Port != 1 {
		t.Fatalf("HostPortOf = %+v, %v", hp, ok)
	}
	if _, ok := top.HostPortOf(up); ok {
		t.Fatal("host uplink direction should not resolve")
	}
}

func TestRailOnlyTier2(t *testing.T) {
	cfg := SmallHPN(2, 4, 2)
	cfg.RailOnlyTier2 = true
	top, err := BuildHPN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, top)
	if top.Planes != 16 {
		t.Fatalf("planes = %d, want 16 (one pair per rail)", top.Planes)
	}
	// Every ToR's plane encodes (rail, port).
	for _, n := range top.Nodes {
		if n.Kind != KindToR {
			continue
		}
		if n.Plane != n.Rail*2+n.Index {
			t.Fatalf("ToR %s plane %d, want %d", n.Name, n.Plane, n.Rail*2+n.Index)
		}
	}
	// Aggs of different rails never share a ToR.
	for _, n := range top.Nodes {
		if n.Kind != KindAgg {
			continue
		}
		for _, dl := range n.Downlinks {
			tor := top.Node(top.Link(dl).To)
			if tor.Plane != n.Plane {
				t.Fatal("rail-only agg wired across planes")
			}
		}
	}
}

func TestRailOnlyRequiresDualPlane(t *testing.T) {
	cfg := SmallHPN(1, 2, 2)
	cfg.DualPlane = false
	cfg.RailOnlyTier2 = true
	if _, err := BuildHPN(cfg); err == nil {
		t.Fatal("rail-only without dual-plane accepted")
	}
}
