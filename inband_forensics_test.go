package hpn

import (
	"testing"

	"hpn/internal/inband"
	"hpn/internal/netsim"
	"hpn/internal/route"
)

// collectInband drives a dense cross-segment flow sweep — many distinct
// 5-tuples, the statistics hash forensics needs — through a 2-segment
// cluster of the requested variant with in-band path telemetry on, and
// returns the collected per-hop records.
func collectInband(t *testing.T, dualPlane, sharedSeed bool) []inband.Record {
	t.Helper()
	cfg := SmallHPN(2, 8, 8)
	cfg.DualPlane = dualPlane
	cfg.SharedHashSeed = sharedSeed
	c, err := NewHPN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := c.Net.EnableInband(0)

	// Every host in segment 0 sends to its peer in segment 1 on two rails,
	// 32 connections each: 512 flows with distinct tuples, all crossing the
	// ToR->Agg->ToR cascade.
	sport := uint16(20000)
	for h := 0; h < 8; h++ {
		for nic := 0; nic < 2; nic++ {
			for k := 0; k < 32; k++ {
				sport++
				src := route.Endpoint{Host: h, NIC: nic}
				dst := route.Endpoint{Host: h + 8, NIC: nic}
				if _, err := c.Net.StartFlow(src, dst, 256<<10, netsim.FlowOpts{SrcPort: -1, Sport: sport}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	c.Eng.Run()
	if n := c.Net.ActiveFlows(); n != 0 {
		t.Fatalf("%d flows still active after drain", n)
	}

	recs := col.Records()
	if len(recs) == 0 {
		t.Fatal("in-band collector recorded nothing")
	}
	hashed := 0
	for i := range recs {
		if recs[i].Hashed {
			hashed++
		}
	}
	if hashed == 0 {
		t.Fatal("cross-segment sweep traversed no ECMP stage")
	}
	return recs
}

// TestPolarizationDetectorEndToEnd is the forensic acceptance check: run
// the same cross-segment sweep over both tier-2 designs and both seeding
// modes, feed the observed paths to the detector, and require that it fires
// exactly on the legacy shared-seed Clos deployment (§2.2) while staying
// quiet when switches hash independently — on the same Clos topology with
// per-switch seeds and on the dual-plane design.
func TestPolarizationDetectorEndToEnd(t *testing.T) {
	cases := []struct {
		name                  string
		dualPlane, sharedSeed bool
		wantPolarized         bool
	}{
		{"clos_shared_seed", false, true, true},
		{"clos_per_switch_seeds", false, false, false},
		{"dual_plane", true, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs := collectInband(t, tc.dualPlane, tc.sharedSeed)
			pairs := inband.DetectPolarization(recs)
			got := false
			for _, p := range pairs {
				got = got || p.Polarized()
			}
			if got != tc.wantPolarized {
				for _, p := range pairs {
					t.Logf("  %s(%d) -> %s(%d): n=%d score=%.2f polarized=%v",
						p.NodeA, p.GroupA, p.NodeB, p.GroupB, p.Conditioned, p.Score, p.Polarized())
				}
				t.Fatalf("polarized=%v, want %v (%d stage pairs)", got, tc.wantPolarized, len(pairs))
			}
			if tc.sharedSeed {
				// The fingerprint the verdict traces back to: every hashed
				// hop reports the same switch seed.
				var seed uint64
				for i := range recs {
					if !recs[i].Hashed {
						continue
					}
					if seed == 0 {
						seed = recs[i].Seed
					}
					if recs[i].Seed != seed {
						t.Fatalf("shared-seed run reports distinct seeds %d and %d", seed, recs[i].Seed)
					}
				}
			}
		})
	}
}

// TestInbandObservedImbalance sanity-checks the observed-path ECMP
// imbalance analysis over real traffic: histograms must be well formed and
// the ToR uplink stage must actually have been measured.
func TestInbandObservedImbalance(t *testing.T) {
	groups := inband.ECMPImbalance(collectInband(t, false, false))
	if len(groups) == 0 {
		t.Fatal("no ECMP groups observed")
	}
	upSeen := false
	for _, g := range groups {
		sum := 0
		for _, c := range g.Counts {
			sum += c
		}
		if sum != g.Total || len(g.Counts) != g.Group {
			t.Fatalf("malformed histogram: %+v", g)
		}
		if g.Ratio < 1 {
			t.Fatalf("imbalance below 1: %+v", g)
		}
		if !g.Down {
			upSeen = true
		}
	}
	if !upSeen {
		t.Fatal("no uplink (ToR->Agg) group observed")
	}
}
