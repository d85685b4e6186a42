package hpn

import (
	"testing"

	"hpn/internal/collective"
	"hpn/internal/topo"
)

// The §3 headline: on the production pod, a job within a segment's 1K GPUs
// gets pure tier1 networking — every same-rail flow is a single ToR hop,
// and the AllReduce achieves the uncontended analytic rate.
func TestProductionPodSegmentLocality(t *testing.T) {
	if testing.Short() {
		t.Skip("15K-GPU build")
	}
	c, err := NewHPN(DefaultHPN())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Topo.TotalGPUs(true); got != 15360 {
		t.Fatalf("pod = %d active GPUs", got)
	}
	if err := c.VerifyPlaneIsolation(300, 9); err != nil {
		t.Fatal(err)
	}

	// A 96.3%-percentile job: 1024 GPUs = 128 hosts = exactly one segment.
	hosts, err := c.PlaceJob(128)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.SegmentsSpanned(hosts); got != 1 {
		t.Fatalf("1K-GPU job spans %d segments, want 1", got)
	}
	g, err := collective.NewGroup(c.Net, c.CollectiveConfig(), hosts, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.AllReduce(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	// Everything is ToR-local: no Aggregation crossing at all.
	if c.Net.AggBits.Float() != 0 {
		t.Fatalf("segment-local job pushed %v bits through Aggs", c.Net.AggBits.Float())
	}
	if res.BusBW < 150e9 {
		t.Fatalf("uncontended segment AllReduce busbw = %v, want >150GB/s", res.BusBW)
	}

	// The whole-pod claim: a 15K-GPU allocation exists and spans all 15
	// segments.
	all, err := c.PlaceJob(1920)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.SegmentsSpanned(all); got != 15 {
		t.Fatalf("full-pod job spans %d segments", got)
	}
}

// The 100K-GPU additional capacity goal (G1): seven pods behind the Core
// tier clear 100K GPUs, and cross-pod paths exist.
func TestHundredKGoal(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-pod build")
	}
	cfg := DefaultHPN()
	cfg.Pods = 7
	cfg.SegmentsPerPod = 2 // build a slice of each pod; scale is computed, wiring is checked
	c, err := NewHPN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if errs := c.Topo.Validate(); len(errs) > 0 {
		t.Fatalf("wiring: %v", errs[0])
	}
	// Scale math: 7 pods x 15 segments x 1024 GPUs > 100K.
	full := topo.Table2()
	perPod := full[len(full)-1].Tier2GPUs
	if perPod*7 < 100000 {
		t.Fatalf("7 pods = %d GPUs, want >100K", perPod*7)
	}
	// A flow between pods transits the Core tier.
	hosts := c.Topo.Hosts
	var podA, podB int = -1, -1
	for i, h := range hosts {
		if h.Pod == 0 && podA < 0 {
			podA = i
		}
		if h.Pod == 1 && podB < 0 {
			podB = i
		}
	}
	g, err := collective.NewGroup(c.Net, c.CollectiveConfig(), []int{podA, podB}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AllReduce(64 << 20); err != nil {
		t.Fatal(err)
	}
	if c.Net.CoreBits.Float() == 0 {
		t.Fatal("cross-pod collective never crossed the Core tier")
	}
}
