package topo

import "testing"

// TestShardByPodPartition builds a 3-pod fabric and checks the partition is
// total and structural: every node and link lands in exactly one domain,
// intra-pod links in their pod's shard, and exactly the agg-core links in
// the global domain.
func TestShardByPodPartition(t *testing.T) {
	cfg := SmallHPN(2, 4, 2)
	cfg.Pods = 3
	top, err := BuildHPN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := ShardByPod(top)
	if err != nil {
		t.Fatal(err)
	}
	if sh.N != 3 {
		t.Fatalf("N = %d, want 3", sh.N)
	}
	for _, n := range top.Nodes {
		d := int(sh.shardOfNode[n.ID])
		switch {
		case n.Kind == KindCore && d != 0:
			t.Fatalf("core %s in domain %d, want global", n.Name, d)
		case n.Kind != KindCore && d != n.Pod+1:
			t.Fatalf("%s (pod %d) in domain %d, want %d", n.Name, n.Pod, d, n.Pod+1)
		}
	}
	owned := 0
	for _, l := range top.Links {
		from, to := top.Nodes[l.From], top.Nodes[l.To]
		crossing := from.Kind == KindCore || to.Kind == KindCore
		if got := sh.shardOfLink[l.ID] == 0; got != crossing {
			t.Fatalf("link %d (%s<->%s): Crossing=%v, want %v", l.ID, from.Name, to.Name, got, crossing)
		}
		if !crossing {
			want := from.Pod + 1
			if sh.ShardOfLink(l.ID) != want {
				t.Fatalf("link %d in domain %d, want %d", l.ID, sh.ShardOfLink(l.ID), want)
			}
			owned++
		}
	}
	perShard := 0
	for s, links := range sh.ShardLinks {
		perShard += len(links)
		for i := 1; i < len(links); i++ {
			if links[i] <= links[i-1] {
				t.Fatalf("shard %d link list not ascending at %d", s+1, i)
			}
		}
	}
	if perShard != owned {
		t.Fatalf("ShardLinks holds %d links, the scan found %d shard-owned", perShard, owned)
	}
	if len(sh.CrossLinks)+perShard != len(top.Links) {
		t.Fatalf("partition not total: %d cross + %d shard != %d links",
			len(sh.CrossLinks), perShard, len(top.Links))
	}
}

// TestShardByPodHostLookup checks ShardOfHost follows the host's pod.
func TestShardByPodHostLookup(t *testing.T) {
	cfg := SmallHPN(1, 4, 2)
	cfg.Pods = 2
	top, err := BuildHPN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := ShardByPod(top)
	if err != nil {
		t.Fatal(err)
	}
	for id, h := range top.Hosts {
		if got := sh.ShardOfHost(top, id); got != h.Pod+1 {
			t.Fatalf("host %d (pod %d) in domain %d, want %d", id, h.Pod, got, h.Pod+1)
		}
	}
}

// TestShardByPodRejectsSinglePod pins the refusal: a one-pod fabric has no
// crossing structure to exploit, so sharding must error rather than build a
// degenerate one-shard ensemble.
func TestShardByPodRejectsSinglePod(t *testing.T) {
	top, err := BuildHPN(SmallHPN(1, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ShardByPod(top); err == nil {
		t.Fatal("ShardByPod accepted a single-pod fabric")
	}
}
