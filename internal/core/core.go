// Package core assembles the paper's primary contribution: the HPN
// architecture as a deployable unit — topology (dual-ToR access,
// rail-optimized tier1, dual-plane tier2, 15:1-oversubscribed tier3),
// routing policy, collective-library path policy, and the segment-first
// job placement rule. A job with PP across pods states its hosts as an
// hpn.Scenario Placement instead.
//
// The same type also instantiates the baselines (DCN+ and the HPN
// ablations), so every experiment compares like with like: only the
// architecture differs.
package core

import (
	"fmt"
	"sort"

	"hpn/internal/collective"
	"hpn/internal/hashing"
	"hpn/internal/netsim"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

// Arch names an architecture variant.
type Arch string

// The architectures the evaluation compares.
const (
	ArchHPN            Arch = "hpn"
	ArchHPNSinglePlane Arch = "hpn-single-plane" // typical Clos tier2 (Fig 12a)
	ArchHPNSingleToR   Arch = "hpn-single-tor"   // reliability baseline
	ArchDCN            Arch = "dcn+"             // previous generation (App. C)
)

// Cluster is a built fabric with its simulator.
type Cluster struct {
	Arch Arch
	Topo *topo.Topology
	Eng  *sim.Engine
	Net  *netsim.Sim

	// Pod, when >= 0, scopes this cluster view to one pod of a sharded
	// fabric: placement and port sampling stay inside the pod (the Net is
	// then also RestrictShard-scoped). -1 — every cluster built outside
	// the sharded assembly — means the whole fabric.
	Pod int
}

// NewHPN builds an HPN cluster without telemetry (see EnableTelemetry).
func NewHPN(cfg topo.HPNConfig) (*Cluster, error) {
	t, err := topo.BuildHPN(cfg)
	if err != nil {
		return nil, err
	}
	arch := ArchHPN
	if !cfg.DualToR {
		arch = ArchHPNSingleToR
	} else if !cfg.DualPlane {
		arch = ArchHPNSinglePlane
	}
	return wrap(arch, t), nil
}

// NewDCN builds a DCN+ baseline cluster.
func NewDCN(cfg topo.DCNConfig) (*Cluster, error) {
	t, err := topo.BuildDCN(cfg)
	if err != nil {
		return nil, err
	}
	return wrap(ArchDCN, t), nil
}

// NewFrontend builds the §8 frontend network (management, storage,
// inference) as its own simulated fabric.
func NewFrontend(cfg topo.FrontendConfig) (*Cluster, error) {
	t, err := topo.BuildFrontend(cfg)
	if err != nil {
		return nil, err
	}
	return wrap(Arch("frontend"), t), nil
}

func wrap(arch Arch, t *topo.Topology) *Cluster {
	eng := sim.New()
	return &Cluster{Arch: arch, Topo: t, Eng: eng, Net: netsim.New(eng, t), Pod: -1}
}

// CollectiveConfig returns the communication-library configuration the
// architecture ships with: HPN uses RePaC-backed disjoint paths with
// least-WQE dispatch; DCN+ uses the blind multi-path baseline.
func (c *Cluster) CollectiveConfig() collective.Config {
	cfg := collective.DefaultConfig()
	if c.Arch == ArchDCN {
		cfg.Policy = collective.PolicyBlind
	}
	return cfg
}

// PlaceJob returns `hosts` host IDs following the production scheduler's
// policy: fill segments completely before spilling into the next, so jobs
// under a segment's capacity enjoy pure tier1 networking (§3: 96.3% of
// jobs fit in one HPN segment). Backup hosts are skipped.
func (c *Cluster) PlaceJob(hosts int) ([]int, error) {
	type seg struct {
		pod, seg int
	}
	bySeg := map[seg][]int{}
	for id, h := range c.Topo.Hosts {
		if h.Backup {
			continue
		}
		if c.Pod >= 0 && h.Pod != c.Pod {
			continue
		}
		k := seg{h.Pod, h.Segment}
		bySeg[k] = append(bySeg[k], id)
	}
	keys := make([]seg, 0, len(bySeg))
	for k := range bySeg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pod != keys[j].pod {
			return keys[i].pod < keys[j].pod
		}
		return keys[i].seg < keys[j].seg
	})
	var out []int
	for _, k := range keys {
		ids := bySeg[k]
		sort.Ints(ids)
		for _, id := range ids {
			out = append(out, id)
			if len(out) == hosts {
				return out, nil
			}
		}
	}
	return nil, fmt.Errorf("core: need %d hosts, cluster has %d active", hosts, len(out))
}

// SegmentsSpanned counts distinct segments among the hosts — the paper's
// "the training job spans 19 segments (DCN+) vs 3 (HPN)" metric.
func (c *Cluster) SegmentsSpanned(hosts []int) int {
	type seg struct{ pod, s int }
	set := map[seg]bool{}
	for _, h := range hosts {
		hh := c.Topo.Hosts[h]
		set[seg{hh.Pod, hh.Segment}] = true
	}
	return len(set)
}

// VerifyPlaneIsolation samples flows between random endpoint pairs and
// asserts the dual-plane invariant: a flow entering on port p traverses
// only plane-p links and is delivered to port p. It returns an error on
// the first violation.
func (c *Cluster) VerifyPlaneIsolation(samples int, seed uint64) error {
	if c.Topo.Planes < 2 {
		return fmt.Errorf("core: %s is not dual-plane", c.Arch)
	}
	rng := sim.NewRNG(seed)
	r := c.Net.R
	n := len(c.Topo.Hosts)
	for i := 0; i < samples; i++ {
		src := route.Endpoint{Host: rng.Intn(n), NIC: rng.Intn(8)}
		dst := route.Endpoint{Host: rng.Intn(n), NIC: src.NIC}
		if src.Host == dst.Host {
			continue
		}
		port := rng.Intn(2)
		tuple := hashing.FiveTuple{
			SrcAddr: src.Addr(), DstAddr: dst.Addr(),
			SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: 4791, Proto: 17,
		}
		path, bh, err := r.Path(src, dst, port, tuple, c.Eng.Now())
		if err != nil || bh {
			return fmt.Errorf("core: sample %d unroutable: %v", i, err)
		}
		for _, lk := range path {
			if c.Topo.Link(lk).Plane != port {
				return fmt.Errorf("core: flow on port %d crossed plane %d", port, c.Topo.Link(lk).Plane)
			}
		}
		if hp, ok := c.Topo.HostPortOf(path[len(path)-1]); !ok || hp.Port != port {
			return fmt.Errorf("core: flow on port %d delivered to port %d", port, hp.Port)
		}
	}
	return nil
}

// PathSearchSpace returns the number of candidate links a host must
// consider to enumerate all equal-cost paths to a peer — Table 1's
// quantity, measured on the built fabric rather than assumed. For a 2-tier
// dual-plane fabric this is the ToR fan-out; for 3-tier fabrics the
// per-tier fan-outs multiply.
func (c *Cluster) PathSearchSpace(host, nic int) int {
	r := c.Net.R
	space := r.GroupSizeAtToR(host, nic, 0)
	if c.Arch == ArchHPN || c.Arch == ArchHPNSinglePlane {
		return space // tier2 path is determined once the uplink is chosen
	}
	// 3-tier legacy fabric: ToR choice x Agg down-links toward the
	// destination ToR pair (parallel bundles) — and cores across pods.
	h := c.Topo.Hosts[host]
	aggs := c.Topo.Aggs(h.Pod, 0)
	if len(aggs) == 0 {
		return space
	}
	agg := c.Topo.Node(aggs[0])
	perToR := len(agg.Downlinks) / maxInt(1, countToRsInPod(c.Topo, h.Pod))
	return space * maxInt(1, perToR*2)
}

func countToRsInPod(t *topo.Topology, pod int) int {
	n := 0
	for _, nd := range t.Nodes {
		if nd.Kind == topo.KindToR && nd.Pod == pod {
			n++
		}
	}
	return n
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
