package netsim

import (
	"testing"
	"testing/quick"

	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

// Property: for arbitrary flow sets on a healthy fabric, the allocation is
// a valid max-min fair point — no link over capacity, every flow strictly
// positive and bottlenecked at some saturated link where it holds a
// maximal rate — and all flows eventually drain.
func TestMaxMinProperty(t *testing.T) {
	top, err := topo.BuildHPN(topo.SmallHPN(2, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	f := func(pairs []uint32) bool {
		if len(pairs) == 0 {
			return true
		}
		if len(pairs) > 60 {
			pairs = pairs[:60]
		}
		eng := sim.New()
		s := New(eng, top)
		started := 0
		for _, p := range pairs {
			srcHost := int(p % 16)
			dstHost := int((p >> 8) % 16)
			if srcHost == dstHost {
				continue
			}
			nic := int((p >> 16) % 8)
			size := float64(1+(p>>24)%16) * (1 << 20)
			if _, err := s.StartFlow(
				route.Endpoint{Host: srcHost, NIC: nic},
				route.Endpoint{Host: dstHost, NIC: nic},
				size, FlowOpts{SrcPort: -1}); err != nil {
				return false
			}
			started++
		}
		// Validate the instantaneous allocation.
		used := map[topo.LinkID]float64{}
		maxOn := map[topo.LinkID]float64{}
		for _, fl := range s.active {
			if fl.Stalled || fl.Rate <= 0 {
				return false
			}
			for _, lk := range fl.Path {
				used[lk] += fl.Rate
				if fl.Rate > maxOn[lk] {
					maxOn[lk] = fl.Rate
				}
			}
		}
		for lk, u := range used {
			if u > top.Link(lk).CapBps*(1+1e-6) {
				return false
			}
		}
		for _, fl := range s.active {
			ok := false
			for _, lk := range fl.Path {
				if used[lk] >= top.Link(lk).CapBps*(1-1e-6) && fl.Rate >= maxOn[lk]*(1-1e-6) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		eng.Run()
		return int(s.CompletedFlows) == started && s.ActiveFlows() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: conservation — completed bits equal the sum of injected sizes,
// regardless of a mid-run failure and recovery.
func TestConservationUnderFailure(t *testing.T) {
	f := func(seed uint8) bool {
		top, err := topo.BuildHPN(topo.SmallHPN(2, 4, 4))
		if err != nil {
			return false
		}
		eng := sim.New()
		s := New(eng, top)
		total := 0.0
		for i := 0; i < 12; i++ {
			src := route.Endpoint{Host: i % 4, NIC: (i + int(seed)) % 8}
			dst := route.Endpoint{Host: 4 + (i+1)%4, NIC: (i + int(seed)) % 8}
			size := float64(8 << 20)
			total += size * 8
			if _, err := s.StartFlow(src, dst, size, FlowOpts{SrcPort: -1}); err != nil {
				return false
			}
		}
		victim := top.AccessLink(int(seed)%4, int(seed)%8, 0)
		eng.Schedule(sim.Millisecond/4, func() { s.FailCable(victim) })
		eng.Schedule(3*sim.Second, func() { s.RecoverCable(victim) })
		eng.Run()
		return s.CompletedBits.Float() == total && s.ActiveFlows() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
