package core

import (
	"hpn/internal/netsim"
	"hpn/internal/sim"
	"hpn/internal/telemetry"
	"hpn/internal/topo"
)

// ShardedCluster is one HPN fabric simulated by a coordinated ensemble of
// engines: a global domain (cores, agg-core links, every cross-pod flow)
// plus one shard per pod (the pod's hosts, ToRs, Aggs and the links between
// them). The shards advance in conservative time windows under sim.Sharded;
// each owns a private netsim.Sim scoped to its pod's links, so pod-local
// traffic — the common case under segment-first placement — simulates in
// parallel with no shared mutable state.
//
// Escalation rule: any flow whose endpoints live in different pods must be
// started on Global.Net, and the coordinator runs the global domain only
// while every shard is quiescent. Pod Sims reject cross-pod endpoints at
// StartFlow, so the rule is checked, not just documented.
type ShardedCluster struct {
	Arch     Arch
	Topo     *topo.Topology
	Sharding *topo.Sharding
	// Coord is the windowed scheduler; Run the ensemble through it, never
	// through the individual engines.
	Coord *sim.Sharded
	// Global simulates domain 0. Pods[i] simulates pod i (domain i+1).
	Global *Cluster
	Pods   []*Cluster
	// Hub is the root telemetry hub (nil when telemetry is disabled); the
	// pod clusters write through private shard hubs derived from it, whose
	// artifacts the root writes after its own.
	Hub     *telemetry.Hub
	podHubs []*telemetry.Hub

	folded bool
}

// NewShardedHPN builds an HPN fabric and the per-pod engine ensemble over
// it. Its global domain joins h and each pod a shard hub of h; a nil h
// builds it without telemetry. The fabric must have at least two pods — a
// single-pod build has nothing to shard; build a plain Cluster instead.
func NewShardedHPN(cfg topo.HPNConfig, h *telemetry.Hub) (*ShardedCluster, error) {
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
	return shardTopology(arch, t, h)
}

func shardTopology(arch Arch, t *topo.Topology, h *telemetry.Hub) (*ShardedCluster, error) {
	sh, err := topo.ShardByPod(t)
	if err != nil {
		return nil, err
	}
	geng := sim.New()
	sc := &ShardedCluster{
		Arch:     arch,
		Topo:     t,
		Sharding: sh,
		Global:   &Cluster{Arch: arch, Topo: t, Eng: geng, Net: netsim.New(geng, t), Pod: -1},
		Hub:      h,
	}
	// The global cluster joins the root hub first, taking the unprefixed
	// slot: cross-pod metrics and the merged trace keep the names
	// single-engine runs produce. Pod clusters then join in pod order, so
	// prefixes (c2_, c3_, ...) map to pods deterministically.
	sc.Global.EnableTelemetry(h)
	engines := make([]*sim.Engine, sh.N)
	for i := 0; i < sh.N; i++ {
		eng := sim.New()
		net := netsim.New(eng, t)
		net.RestrictShard(sh, i+1)
		// Disjoint flow-ID ranges per domain: IDs appear in traces and
		// flow logs, and merged artifacts must never collide. 2^40 flows
		// per domain is far beyond any run's reach.
		net.SetFlowIDBase(int64(i+1) << 40)
		pc := &Cluster{Arch: arch, Topo: t, Eng: eng, Net: net, Pod: i}
		if h != nil {
			ph := h.ShardHub()
			pc.EnableTelemetry(ph)
			sc.podHubs = append(sc.podHubs, ph)
		}
		sc.Pods = append(sc.Pods, pc)
		engines[i] = eng
	}
	sc.Coord = sim.NewSharded(geng, engines)
	if h != nil && h.Prof != nil {
		sc.Coord.SetProfiler(h.Prof)
	}
	return sc, nil
}

// SetWorkers sets how many OS goroutines execute shard windows (1 = serial).
// Results are identical for every worker count; only wall-clock changes.
func (sc *ShardedCluster) SetWorkers(n int) { sc.Coord.SetWorkers(n) }

// DomainFor returns the cluster that owns a link: the pod shard for
// intra-pod links, the global cluster for agg-core links. Failure
// injection must target the owning cluster's Net/engine.
func (sc *ShardedCluster) DomainFor(l topo.LinkID) *Cluster {
	if d := sc.Sharding.ShardOfLink(l); d > 0 {
		return sc.Pods[d-1]
	}
	return sc.Global
}

// Run drives the whole ensemble to quiescence through the windowed
// coordinator, then folds per-shard metrics into the root registry so
// suffix-summing readers (MetricSum, the JSON/Prometheus exports) see the
// ensemble total.
func (sc *ShardedCluster) Run() {
	sc.Coord.Run()
	sc.foldMetrics()
}

// foldMetrics absorbs every pod registry into the base registry, once, in
// pod order on the calling goroutine. Safe only while the engines are
// quiescent.
func (sc *ShardedCluster) foldMetrics() {
	if sc.Hub == nil || sc.folded {
		return
	}
	sc.folded = true
	for _, ph := range sc.podHubs {
		sc.Hub.Registry.Absorb(ph.Registry)
	}
}
