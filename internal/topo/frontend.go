package topo

import "fmt"

// FrontendConfig parameterizes the HPN frontend network (§8): a classic
// 3-tier topology with 1:1 convergence at both Aggregation and Core, dual-
// ToR access, carrying management, storage (CPFS/OSS) and inference traffic.
// Storage hosts live here, physically decoupled from the training backend.
type FrontendConfig struct {
	Segments        int
	HostsPerSegment int
	StorageHosts    int // 96-128 in production, appended as their own segment(s)
	AccessGbps      float64
	FabricGbps      float64
	AggsPerPod      int
	Cores           int
	Seed            uint64
}

// DefaultFrontend returns a production-shaped frontend: dual-ToR access,
// 1:1 everywhere, one storage cluster of 96 hosts.
func DefaultFrontend() FrontendConfig {
	return FrontendConfig{
		Segments:        8,
		HostsPerSegment: 64,
		StorageHosts:    96,
		AccessGbps:      200,
		FabricGbps:      400,
		AggsPerPod:      8,
		Cores:           8,
		Seed:            0xf0e,
	}
}

// BuildFrontend constructs the frontend network. Hosts have a single
// frontend NIC (2x200G, dual-ToR). Storage hosts are marked Backup=false
// and placed in trailing segments; callers identify them by index >=
// Segments*HostsPerSegment.
func BuildFrontend(cfg FrontendConfig) (*Topology, error) {
	if cfg.Segments <= 0 || cfg.HostsPerSegment <= 0 {
		return nil, fmt.Errorf("topo: invalid frontend config %+v", cfg)
	}
	t := New("frontend", 1, 1)
	ports := map[NodeID]int{}
	seedOf := func(id NodeID) uint64 { return cfg.Seed + uint64(id)*0x9e3779b97f4a7c15 }

	var cores []NodeID
	for i := 0; i < cfg.Cores; i++ {
		id := t.AddNode(Node{Kind: KindCore, Name: fmt.Sprintf("fe-core-%d", i),
			Pod: -1, Segment: -1, Plane: 0, Rail: -1, Index: i})
		t.Nodes[id].HashSeed = seedOf(id)
		cores = append(cores, id)
	}
	var aggs []NodeID
	for i := 0; i < cfg.AggsPerPod; i++ {
		id := t.AddNode(Node{Kind: KindAgg, Name: fmt.Sprintf("fe-agg-%d", i),
			Pod: 0, Segment: -1, Plane: 0, Rail: -1, Index: i})
		t.Nodes[id].HashSeed = seedOf(id)
		aggs = append(aggs, id)
		t.aggIndex[[2]int{0, 0}] = append(t.aggIndex[[2]int{0, 0}], id)
		for _, c := range cores {
			t.connect(ports, id, c, cfg.FabricGbps*1e9, 0)
		}
	}

	storageSegments := (cfg.StorageHosts + cfg.HostsPerSegment - 1) / cfg.HostsPerSegment
	totalSegments := cfg.Segments + storageSegments
	remainingStorage := cfg.StorageHosts
	for seg := 0; seg < totalSegments; seg++ {
		pair := make([]NodeID, 2)
		for ti := 0; ti < 2; ti++ {
			id := t.AddNode(Node{Kind: KindToR, Name: fmt.Sprintf("fe-tor-seg%d-%d", seg, ti),
				Pod: 0, Segment: seg, Plane: 0, Rail: -1, Index: ti})
			t.Nodes[id].HashSeed = seedOf(id)
			pair[ti] = id
			for _, a := range aggs {
				t.connect(ports, id, a, cfg.FabricGbps*1e9, 0)
			}
		}
		nHosts := cfg.HostsPerSegment
		if seg >= cfg.Segments { // storage segment
			if remainingStorage < nHosts {
				nHosts = remainingStorage
			}
			remainingStorage -= nHosts
		}
		for hIdx := 0; hIdx < nHosts; hIdx++ {
			hn := t.AddNode(Node{Kind: KindHost, Name: fmt.Sprintf("fe-host-seg%d-%d", seg, hIdx),
				Pod: 0, Segment: seg, Plane: -1, Rail: -1, Index: hIdx})
			h := &Host{Node: hn, Pod: 0, Segment: seg, Index: hIdx}
			nic := NIC{Rail: 0}
			for ti := 0; ti < 2; ti++ {
				up := t.connect(ports, hn, pair[ti], cfg.AccessGbps*1e9, 0)
				nic.Ports = append(nic.Ports, up)
				t.hostOfLink[t.Links[up].Reverse] = HostPort{Host: len(t.Hosts), NIC: 0, Port: ti}
			}
			h.NICs = append(h.NICs, nic)
			t.Hosts = append(t.Hosts, h)
		}
	}
	return t, nil
}

// StorageHostStart returns the index of the first storage host in a
// frontend built with cfg.
func (cfg FrontendConfig) StorageHostStart() int { return cfg.Segments * cfg.HostsPerSegment }
