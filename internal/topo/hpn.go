package topo

import "fmt"

// HPNConfig parameterizes the HPN backend builder. DefaultHPN returns the
// paper's production values (§3, Figure 7); tests and experiments shrink the
// counts but keep the structure.
type HPNConfig struct {
	Pods           int
	SegmentsPerPod int
	// ActiveHostsPerSegment and BackupHostsPerSegment: 128 + 8 in production
	// (1024 active + 64 backup GPUs per segment).
	ActiveHostsPerSegment int
	BackupHostsPerSegment int
	// Rails is the number of GPUs (and backend NICs) per host.
	Rails int

	// DualToR connects the two 200G ports of each NIC to two different ToRs
	// (§4). When false, each NIC has a single 400G uplink to one ToR
	// (the traditional single-ToR design, used as the reliability baseline).
	DualToR bool
	// DualPlane splits the ToR/Agg fabric into two disjoint forwarding
	// planes (§6.1). When false the tier2 is a typical Clos: every ToR
	// connects to every Agg and Aggs reach a NIC via either ToR of its
	// dual-ToR set (Figure 12a) — the hash-polarization ablation.
	DualPlane bool
	// RailOnlyTier2 builds the Table 4 counterfactual: each rail gets its
	// own pair of planes (16 planes total), Aggs never interconnect rails,
	// and cross-rail traffic has no fabric path at all. Scales a pod 8x
	// but breaks MoE-style all-to-all and serverless multi-tenant traffic
	// (§10, "Why not employ the rail-optimized idea on tier2").
	RailOnlyTier2 bool

	// AccessGbps is the per-port host->ToR speed (200 under dual-ToR; the
	// builder uses 2x this for the single 400G port under single-ToR).
	AccessGbps float64
	// TorAggGbps is the ToR->Agg link speed (400).
	TorAggGbps float64
	// AggsPerPlane is the number of aggregation switches per plane per pod
	// (60 in production).
	AggsPerPlane int

	// WithCore adds the tier3 Core layer (§7) even for a single pod;
	// multi-pod builds always get it. AggCoreUplinks is the number of 400G
	// uplinks per Agg (8 in production: the 15:1 oversubscription).
	WithCore       bool
	AggCoreUplinks int
	CoreGbps       float64
	CoresPerPlane  int // 0 = derive from port budget

	// SharedHashSeed gives every switch the same ECMP hash function, the
	// legacy deployment that produces hash polarization. HPN production
	// leaves this false; the DCN+ baseline sets it.
	SharedHashSeed bool
	// Seed is the base for all per-switch hash seeds.
	Seed uint64
}

// DefaultHPN returns the production-scale HPN configuration from the paper:
// one pod, 15 segments, 136 hosts (128 active + 8 backup) per segment,
// 8 rails, dual-ToR + dual-plane, 60 Aggs per plane, 15:1 Agg-Core
// oversubscription.
func DefaultHPN() HPNConfig {
	return HPNConfig{
		Pods:                  1,
		SegmentsPerPod:        15,
		ActiveHostsPerSegment: 128,
		BackupHostsPerSegment: 8,
		Rails:                 8,
		DualToR:               true,
		DualPlane:             true,
		AccessGbps:            200,
		TorAggGbps:            400,
		AggsPerPlane:          60,
		AggCoreUplinks:        8,
		CoreGbps:              400,
		Seed:                  0x4a50,
	}
}

// SmallHPN returns a reduced HPN keeping the full structure: useful for
// tests and examples (segments x hostsPerSegment hosts, dual-ToR,
// dual-plane, aggsPerPlane aggs).
func SmallHPN(segments, hostsPerSegment, aggsPerPlane int) HPNConfig {
	c := DefaultHPN()
	c.SegmentsPerPod = segments
	c.ActiveHostsPerSegment = hostsPerSegment
	c.BackupHostsPerSegment = 0
	c.AggsPerPlane = aggsPerPlane
	return c
}

// BuildHPN constructs the HPN backend fabric described by cfg.
func BuildHPN(cfg HPNConfig) (*Topology, error) {
	if cfg.Pods <= 0 || cfg.SegmentsPerPod <= 0 || cfg.ActiveHostsPerSegment <= 0 || cfg.Rails <= 0 {
		return nil, fmt.Errorf("topo: invalid HPN config %+v", cfg)
	}
	planes := 1
	torsPerRail := 1
	if cfg.DualToR {
		torsPerRail = 2
	}
	if cfg.DualPlane {
		if !cfg.DualToR {
			return nil, fmt.Errorf("topo: dual-plane requires dual-ToR")
		}
		planes = 2
	}
	if cfg.RailOnlyTier2 {
		if !cfg.DualPlane {
			return nil, fmt.Errorf("topo: rail-only tier2 requires dual-plane")
		}
		// One plane pair per rail: plane id = rail*2 + port.
		planes = 2 * cfg.Rails
	}
	withCore := cfg.WithCore || cfg.Pods > 1

	t := New("hpn", planes, cfg.Pods)
	ports := map[NodeID]int{}
	seedOf := func(id NodeID) uint64 {
		if cfg.SharedHashSeed {
			return cfg.Seed
		}
		return cfg.Seed*0x9e3779b97f4a7c15 + uint64(id)*0xbf58476d1ce4e5b9 + 1
	}

	hostsPerSegment := cfg.ActiveHostsPerSegment + cfg.BackupHostsPerSegment

	// Core layer (tier3), shared across pods, one set per plane.
	var cores [][]NodeID // [plane][i]
	if withCore {
		coresPerPlane := cfg.CoresPerPlane
		if coresPerPlane <= 0 {
			// Size cores so each has at most 64 downlinks per plane.
			total := cfg.Pods * cfg.AggsPerPlane * cfg.AggCoreUplinks
			coresPerPlane = (total + 63) / 64
			if coresPerPlane == 0 {
				coresPerPlane = 1
			}
		}
		cores = make([][]NodeID, planes)
		for p := 0; p < planes; p++ {
			for i := 0; i < coresPerPlane; i++ {
				id := t.AddNode(Node{
					Kind: KindCore, Name: fmt.Sprintf("core-p%d-%d", p, i),
					Pod: -1, Segment: -1, Plane: p, Rail: -1, Index: i,
					PerPortHash: true,
				})
				t.Nodes[id].HashSeed = seedOf(id)
				cores[p] = append(cores[p], id)
			}
		}
	}

	for pod := 0; pod < cfg.Pods; pod++ {
		// Aggregation switches, per plane.
		aggs := make([][]NodeID, planes)
		for p := 0; p < planes; p++ {
			for i := 0; i < cfg.AggsPerPlane; i++ {
				id := t.AddNode(Node{
					Kind: KindAgg, Name: fmt.Sprintf("agg-pod%d-p%d-%d", pod, p, i),
					Pod: pod, Segment: -1, Plane: p, Rail: -1, Index: i,
				})
				t.Nodes[id].HashSeed = seedOf(id)
				aggs[p] = append(aggs[p], id)
				t.aggIndex[[2]int{pod, p}] = append(t.aggIndex[[2]int{pod, p}], id)
			}
			// Agg -> Core uplinks, round-robin over this plane's cores.
			if withCore {
				cs := cores[p]
				for ai, a := range aggs[p] {
					for u := 0; u < cfg.AggCoreUplinks; u++ {
						core := cs[(ai*cfg.AggCoreUplinks+u)%len(cs)]
						t.connect(ports, a, core, cfg.CoreGbps*1e9, p)
					}
				}
			}
		}

		for seg := 0; seg < cfg.SegmentsPerPod; seg++ {
			// ToRs: one per (rail, tor-index); tor-index == plane when
			// dual-plane, both ToRs in plane 0 otherwise.
			tors := make([][]NodeID, cfg.Rails)
			for r := 0; r < cfg.Rails; r++ {
				tors[r] = make([]NodeID, torsPerRail)
				for ti := 0; ti < torsPerRail; ti++ {
					plane := 0
					if cfg.RailOnlyTier2 {
						plane = r*2 + ti
					} else if cfg.DualPlane {
						plane = ti
					}
					id := t.AddNode(Node{
						Kind: KindToR,
						Name: fmt.Sprintf("tor-pod%d-seg%d-r%d-%d", pod, seg, r, ti),
						Pod:  pod, Segment: seg, Plane: plane, Rail: r, Index: ti,
					})
					t.Nodes[id].HashSeed = seedOf(id)
					tors[r][ti] = id

					// ToR -> Agg: one link to every Agg of the ToR's plane.
					// Under single-plane (typical Clos) every ToR connects
					// to every Agg of plane 0.
					for _, a := range aggs[plane] {
						t.connect(ports, id, a, cfg.TorAggGbps*1e9, plane)
					}
				}
			}

			// Hosts.
			for hIdx := 0; hIdx < hostsPerSegment; hIdx++ {
				hn := t.AddNode(Node{
					Kind: KindHost,
					Name: fmt.Sprintf("host-pod%d-seg%d-%d", pod, seg, hIdx),
					Pod:  pod, Segment: seg, Plane: -1, Rail: -1, Index: hIdx,
				})
				h := &Host{
					Node: hn, Pod: pod, Segment: seg, Index: hIdx,
					Backup: hIdx >= cfg.ActiveHostsPerSegment,
				}
				for r := 0; r < cfg.Rails; r++ {
					nic := NIC{Rail: r}
					speed := cfg.AccessGbps * 1e9
					if !cfg.DualToR {
						speed *= 2 // single 400G port aggregates the NIC
					}
					for ti := 0; ti < torsPerRail; ti++ {
						up := t.connect(ports, hn, tors[r][ti], speed, t.Nodes[tors[r][ti]].Plane)
						nic.Ports = append(nic.Ports, up)
						t.hostOfLink[t.Links[up].Reverse] = HostPort{Host: len(t.Hosts), NIC: r, Port: ti}
					}
					h.NICs = append(h.NICs, nic)
				}
				t.Hosts = append(t.Hosts, h)
			}
		}
	}
	return t, nil
}
