package topo

import "fmt"

// DCNConfig parameterizes the DCN+ baseline builder (Appendix C): Alibaba's
// previous-generation 3-tier Clos training network with dual-ToR but without
// rail optimization, dual-plane or per-port core hashing, and with a shared
// ECMP hash function at every tier (the legacy deployment that exhibits
// hash polarization).
type DCNConfig struct {
	Pods            int
	SegmentsPerPod  int // 4
	HostsPerSegment int // 16 (128 GPUs per segment)
	Rails           int // 8 NICs per host, all on the same dual-ToR set

	AccessGbps float64 // 200 per NIC port
	TorAggGbps float64 // 400
	// AggsPerPod is 8; TorAggParallel is the number of parallel 400G links
	// between each ToR and each Agg (8, giving each ToR 64 uplinks and the
	// pod full bisection bandwidth).
	AggsPerPod     int
	TorAggParallel int

	WithCore        int // number of core switches (128 in production); 0 = no tier3
	AggCoreUplinks  int // 64 per agg
	CoreGbps        float64
	CoreParallelism int // parallel links agg->core pairing granularity (derived if 0)

	Seed uint64
}

// DefaultDCN returns the production DCN+ configuration: 32 pods of 4
// segments x 16 hosts (512 GPUs/pod, 16,384 GPUs total), 8 Aggs per pod,
// 128 cores.
func DefaultDCN() DCNConfig {
	return DCNConfig{
		Pods:            32,
		SegmentsPerPod:  4,
		HostsPerSegment: 16,
		Rails:           8,
		AccessGbps:      200,
		TorAggGbps:      400,
		AggsPerPod:      8,
		TorAggParallel:  8,
		WithCore:        128,
		AggCoreUplinks:  64,
		CoreGbps:        400,
		Seed:            0xdc4e,
	}
}

// SmallDCN returns a reduced DCN+ with the given pod count, keeping the
// 4x16-host pod structure.
func SmallDCN(pods int) DCNConfig {
	c := DefaultDCN()
	c.Pods = pods
	if pods <= 1 {
		c.WithCore = 0
	} else {
		c.WithCore = 4 * pods
	}
	return c
}

// BuildDCN constructs the DCN+ baseline fabric.
func BuildDCN(cfg DCNConfig) (*Topology, error) {
	if cfg.Pods <= 0 || cfg.SegmentsPerPod <= 0 || cfg.HostsPerSegment <= 0 || cfg.Rails <= 0 {
		return nil, fmt.Errorf("topo: invalid DCN+ config %+v", cfg)
	}
	t := New("dcn+", 1, cfg.Pods)
	ports := map[NodeID]int{}
	// Legacy fabric: one shared hash function everywhere — the setup in
	// which cascading hashes polarize (§2.2).
	seed := cfg.Seed

	// Core layer.
	var cores []NodeID
	for i := 0; i < cfg.WithCore; i++ {
		id := t.AddNode(Node{
			Kind: KindCore, Name: fmt.Sprintf("core-%d", i),
			Pod: -1, Segment: -1, Plane: 0, Rail: -1, Index: i,
			HashSeed: seed,
		})
		cores = append(cores, id)
	}

	for pod := 0; pod < cfg.Pods; pod++ {
		var aggs []NodeID
		for i := 0; i < cfg.AggsPerPod; i++ {
			id := t.AddNode(Node{
				Kind: KindAgg, Name: fmt.Sprintf("agg-pod%d-%d", pod, i),
				Pod: pod, Segment: -1, Plane: 0, Rail: -1, Index: i,
				HashSeed: seed,
			})
			aggs = append(aggs, id)
			t.aggIndex[[2]int{pod, 0}] = append(t.aggIndex[[2]int{pod, 0}], id)
			if len(cores) > 0 {
				for u := 0; u < cfg.AggCoreUplinks; u++ {
					core := cores[(i*cfg.AggCoreUplinks+u)%len(cores)]
					t.connect(ports, id, core, cfg.CoreGbps*1e9, 0)
				}
			}
		}

		for seg := 0; seg < cfg.SegmentsPerPod; seg++ {
			// One dual-ToR set per segment; every NIC of every host in the
			// segment lands on this pair (no rail optimization).
			pair := make([]NodeID, 2)
			for ti := 0; ti < 2; ti++ {
				id := t.AddNode(Node{
					Kind: KindToR, Name: fmt.Sprintf("tor-pod%d-seg%d-%d", pod, seg, ti),
					Pod: pod, Segment: seg, Plane: 0, Rail: -1, Index: ti,
					HashSeed: seed,
				})
				pair[ti] = id
				for _, a := range aggs {
					for k := 0; k < cfg.TorAggParallel; k++ {
						t.connect(ports, id, a, cfg.TorAggGbps*1e9, 0)
					}
				}
			}

			for hIdx := 0; hIdx < cfg.HostsPerSegment; hIdx++ {
				hn := t.AddNode(Node{
					Kind: KindHost,
					Name: fmt.Sprintf("host-pod%d-seg%d-%d", pod, seg, hIdx),
					Pod:  pod, Segment: seg, Plane: -1, Rail: -1, Index: hIdx,
				})
				h := &Host{Node: hn, Pod: pod, Segment: seg, Index: hIdx}
				for r := 0; r < cfg.Rails; r++ {
					nic := NIC{Rail: r}
					for ti := 0; ti < 2; ti++ {
						up := t.connect(ports, hn, pair[ti], cfg.AccessGbps*1e9, 0)
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
