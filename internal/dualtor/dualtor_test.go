package dualtor

import (
	"testing"
	"testing/quick"
)

func TestNonStackedNegotiation(t *testing.T) {
	cfgs := NonStackedConfigs()
	b, err := NegotiateNonStacked(cfgs, 17)
	if err != nil {
		t.Fatal(err)
	}
	if b.SysID != ReservedSysMAC {
		t.Fatalf("sysID = %v, want reserved VRRP MAC", b.SysID)
	}
	if len(b.Members) != 2 || b.Members[0] == b.Members[1] {
		t.Fatalf("members = %v, want two distinct portIDs", b.Members)
	}
	if b.Members[0] != 317 || b.Members[1] != 617 {
		t.Fatalf("portIDs = %v, want offsets 300/600 applied", b.Members)
	}
}

// Stock (non-customized) switches answer with their own chassis MACs:
// bonding across two of them must fail — this is exactly why the custom
// LACP module exists.
func TestStockSwitchesCannotBundle(t *testing.T) {
	tor1 := LACPConfig{SystemMAC: MAC{0xaa, 0, 0, 0, 0, 1}, MaxPhysicalPorts: 256}
	tor2 := LACPConfig{SystemMAC: MAC{0xaa, 0, 0, 0, 0, 2}, MaxPhysicalPorts: 256}
	d1, _ := tor1.Respond(5)
	d2, _ := tor2.Respond(5)
	if _, err := FormBond([]LACPDU{d1, d2}); err == nil {
		t.Fatal("bond formed across different sysIDs")
	}
}

// Same MAC but no offset: both ToRs answer the same portID (their wiring is
// symmetric) and aggregation is ambiguous.
func TestSameMACWithoutOffsetCollides(t *testing.T) {
	c := LACPConfig{SystemMAC: ReservedSysMAC, MaxPhysicalPorts: 256}
	d1, _ := c.Respond(5)
	d2, _ := c.Respond(5)
	if _, err := FormBond([]LACPDU{d1, d2}); err == nil {
		t.Fatal("bond formed with duplicate portIDs")
	}
}

// Property: for every valid physical port, the two offset portIDs never
// collide with each other nor with the physical port space.
func TestOffsetNoCollisionProperty(t *testing.T) {
	cfgs := NonStackedConfigs()
	f := func(portRaw uint8) bool {
		port := int(portRaw)
		b, err := NegotiateNonStacked(cfgs, port)
		if err != nil {
			return false
		}
		return b.Members[0] != b.Members[1] &&
			b.Members[0] > cfgs[0].MaxPhysicalPorts &&
			b.Members[1] > cfgs[1].MaxPhysicalPorts
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRespondRejectsBadPort(t *testing.T) {
	c := NonStackedConfigs()[0]
	if _, err := c.Respond(-1); err == nil {
		t.Fatal("negative port accepted")
	}
	if _, err := c.Respond(256); err == nil {
		t.Fatal("out-of-range port accepted")
	}
}

func TestStackedHealthy(t *testing.T) {
	p := NewStackedPair(1)
	if got := p.Evaluate(); got != RackHealthy {
		t.Fatalf("healthy pair evaluates %v", got)
	}
}

// The paper's headline stack failure: primary data plane wedges (MMU
// overflow), control planes keep agreeing over OOB, secondary self-shuts:
// the rack goes fully offline.
func TestStackedMMUWedgeIsRackOutage(t *testing.T) {
	p := NewStackedPair(1)
	p.ToRs[0].DataPlaneUp = false // primary data plane wedged, control alive
	if got := p.Evaluate(); got != RackOffline {
		t.Fatalf("MMU wedge evaluates %v, want offline", got)
	}
}

// The same wedge with the OOB down: the secondary cannot confirm the
// primary is "fine", detects the peer loss and takes over: degraded only.
func TestStackedWedgeWithOOBDownSurvives(t *testing.T) {
	p := NewStackedPair(1)
	p.ToRs[0].DataPlaneUp = false
	p.OOBUp = false
	if got := p.Evaluate(); got != RackDegraded {
		t.Fatalf("wedge+OOB-down evaluates %v, want degraded", got)
	}
}

// A clean full crash of one member is handled (this is what dual-ToR is
// for): degraded, not offline.
func TestStackedCleanCrashDegrades(t *testing.T) {
	p := NewStackedPair(1)
	p.ToRs[1].DataPlaneUp = false
	p.ToRs[1].ControlPlaneUp = false
	if got := p.Evaluate(); got != RackDegraded {
		t.Fatalf("clean crash evaluates %v, want degraded", got)
	}
}

// Upgrade version skew beyond ISSU: rack offline.
func TestStackedUpgradeIncompatibility(t *testing.T) {
	p := NewStackedPair(1)
	p.ToRs[0].Version = 11
	if got := p.Evaluate(); got != RackOffline {
		t.Fatalf("incompatible upgrade evaluates %v, want offline", got)
	}
	// Within ISSU tolerance: fine.
	p2 := NewStackedPair(1)
	p2.ISSUMaxDiff = 1
	p2.ToRs[0].Version = 2
	if got := p2.Evaluate(); got != RackHealthy {
		t.Fatalf("ISSU-compatible upgrade evaluates %v, want healthy", got)
	}
}

// Sync cable cut with both members healthy: split-brain avoidance costs
// redundancy but not availability.
func TestStackedSyncCableCut(t *testing.T) {
	p := NewStackedPair(1)
	p.SyncLinkUp = false
	if got := p.Evaluate(); got != RackDegraded {
		t.Fatalf("sync cut evaluates %v, want degraded", got)
	}
}

func TestNonStackedIndependence(t *testing.T) {
	p := NewNonStackedPair()
	if p.Evaluate() != RackHealthy {
		t.Fatal("healthy non-stacked pair not healthy")
	}
	p.DataPlaneUp[0] = false
	if got := p.Evaluate(); got != RackDegraded {
		t.Fatalf("one member down evaluates %v, want degraded", got)
	}
	p.DataPlaneUp[1] = false
	if got := p.Evaluate(); got != RackOffline {
		t.Fatalf("both members down evaluates %v, want offline", got)
	}
}

// The §4.1 summary: the stacked design's outage rate is dominated by
// stack-sync failure classes, the non-stacked design eliminates them, and
// single-ToR is strictly worse than both.
func TestReliabilityComparison(t *testing.T) {
	p := DefaultReliabilityParams()
	single := SimulateReliability(SingleToR, p)
	stacked := SimulateReliability(StackedDualToR, p)
	nonstacked := SimulateReliability(NonStackedDualToR, p)

	if nonstacked.Outages != 0 {
		t.Errorf("non-stacked outages = %d, want 0 (independent members)", nonstacked.Outages)
	}
	if stacked.Outages <= nonstacked.Outages {
		t.Errorf("stacked outages (%d) must exceed non-stacked (%d)", stacked.Outages, nonstacked.Outages)
	}
	if single.Outages <= nonstacked.Outages {
		t.Errorf("single-ToR outages (%d) must exceed non-stacked (%d)", single.Outages, nonstacked.Outages)
	}
	// Paper: >40% of critical failures in traditional DCs came from
	// stacked dual-ToR issues.
	if stacked.StackShareOfCrit < 0.40 {
		t.Errorf("stack share of critical failures = %.2f, want > 0.40", stacked.StackShareOfCrit)
	}
	// Degraded (survivable) events still occur in non-stacked.
	if nonstacked.Degraded == 0 {
		t.Error("non-stacked should see degraded events from member crashes")
	}
}

func TestReliabilityDeterminism(t *testing.T) {
	p := DefaultReliabilityParams()
	a := SimulateReliability(StackedDualToR, p)
	b := SimulateReliability(StackedDualToR, p)
	if a != b {
		t.Fatal("Monte Carlo not reproducible with fixed seed")
	}
}

func TestMACString(t *testing.T) {
	if got := ReservedSysMAC.String(); got != "00:00:5e:00:01:01" {
		t.Fatalf("MAC string = %q", got)
	}
}
