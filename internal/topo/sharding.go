package topo

import "fmt"

// Sharding is a partition of a fabric for the sharded event loop: every
// node and link is assigned to exactly one pod shard or to the global
// domain. The assignment is structural — it follows the fabric's pod
// boundaries, the only place HPN lets traffic cross between pods — so it
// is computed once from the built topology and never changes at runtime.
//
// Domain numbering matches sim.Sharded: 0 is the global domain (core
// switches, agg-core links — the crossing points), 1..N are the pods.
type Sharding struct {
	// N is the number of pod shards.
	N int

	shardOfNode []int32 // per NodeID; GlobalDomain (0) for cores
	shardOfLink []int32 // per LinkID; GlobalDomain (0) for crossing links

	// ShardLinks[s-1] lists the links owned by shard s, ascending. A
	// shard-scoped simulator restricts its state fingerprints and routing
	// to exactly this set.
	ShardLinks [][]LinkID
	// CrossLinks lists the plane-crossing links (agg<->core), ascending:
	// the annotation routing and escalation decisions key on.
	CrossLinks []LinkID
}

// ShardByPod partitions the topology one shard per pod. Every node with a
// pod index lands in that pod's shard; cores (Pod == -1) and every link
// with endpoints in different domains land in the global domain. It
// refuses single-pod fabrics: with nothing to cross, sharding is pure
// overhead and callers should run the serial engine.
func ShardByPod(t *Topology) (*Sharding, error) {
	if t.Pods < 2 {
		return nil, fmt.Errorf("topo: sharding needs a multi-pod fabric, got %d pod(s)", t.Pods)
	}
	sh := &Sharding{
		N:           t.Pods,
		shardOfNode: make([]int32, len(t.Nodes)),
		shardOfLink: make([]int32, len(t.Links)),
		ShardLinks:  make([][]LinkID, t.Pods),
	}
	for _, n := range t.Nodes {
		if n.Pod < 0 {
			sh.shardOfNode[n.ID] = 0
			continue
		}
		if n.Pod >= t.Pods {
			return nil, fmt.Errorf("topo: node %s has pod %d outside 0..%d", n.Name, n.Pod, t.Pods-1)
		}
		sh.shardOfNode[n.ID] = int32(n.Pod + 1)
	}
	for _, l := range t.Links {
		a, b := sh.shardOfNode[l.From], sh.shardOfNode[l.To]
		if a == b && a != 0 {
			sh.shardOfLink[l.ID] = a
			sh.ShardLinks[a-1] = append(sh.ShardLinks[a-1], l.ID)
			continue
		}
		sh.shardOfLink[l.ID] = 0
		sh.CrossLinks = append(sh.CrossLinks, l.ID)
	}
	return sh, nil
}

// ShardOfLink returns the domain owning the link (0 = global/crossing).
func (s *Sharding) ShardOfLink(l LinkID) int { return int(s.shardOfLink[l]) }

// ShardOfHost returns the domain owning the host.
func (s *Sharding) ShardOfHost(t *Topology, host int) int {
	return int(s.shardOfNode[t.Hosts[host].Node])
}
