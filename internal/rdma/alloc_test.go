//go:build !hpncheck

// hpncheck builds never recycle flows or events, so they allocate by design.

package rdma

import (
	"testing"

	"hpn/internal/route"
	"hpn/internal/sim"
)

// dpRing is a minimal data-parallel ring: every host posts its chunks to
// its ring successor over an established connection set, and one step
// runs until all of them complete. The callbacks are bound once, so the
// test harness itself allocates nothing per step.
type dpRing struct {
	eng     *sim.Engine
	sets    []*ConnSet
	chunks  int
	bytes   float64
	pending int
	post    func()
	done    func(sim.Time)
}

func (r *dpRing) postAll() {
	for _, cs := range r.sets {
		for c := 0; c < r.chunks; c++ {
			r.pending++
			if _, err := cs.Send(r.bytes, r.done); err != nil {
				panic(err)
			}
		}
	}
}

func (r *dpRing) step() {
	r.sets[0].Net.Batch(r.post)
	r.eng.Run()
	if r.pending != 0 {
		panic("ring step ended with chunks in flight")
	}
}

// TestRingStepAllocatesNothing is the allocation guard of the per-flow hot
// path: once a DP ring over RDMA connection sets reaches steady state, a
// further ring step — StartFlow, routing, rate allocation, completion and
// the WQE callbacks for every chunk — must allocate no object at all. A
// completed flow is recycled with its path buffer, the ECMP group is built
// in router scratch and the completion event comes from the engine's pool.
func TestRingStepAllocatesNothing(t *testing.T) {
	eng, net := newNet(t, 2, 4, 4)
	hosts := len(net.Top.Hosts)
	r := &dpRing{eng: eng, chunks: 2, bytes: 4 << 20}
	for h := 0; h < hosts; h++ {
		src, dst := route.Endpoint{Host: h, NIC: 0}, route.Endpoint{Host: (h + 1) % hosts, NIC: 0}
		cs, err := EstablishConns(net, src, dst, DefaultEstablishOpts())
		if err != nil {
			t.Fatal(err)
		}
		r.sets = append(r.sets, cs)
	}
	r.post = r.postAll
	r.done = func(sim.Time) { r.pending-- }
	for i := 0; i < 4; i++ {
		r.step() // fill the pools and grow every scratch buffer
	}
	before := net.CompletedFlows
	allocs := testing.AllocsPerRun(20, r.step)
	flows := float64(net.CompletedFlows-before) / 21 // AllocsPerRun adds one warm-up run
	if flows != float64(hosts*r.chunks) {
		t.Fatalf("%v flows per ring step, want %d", flows, hosts*r.chunks)
	}
	if allocs != 0 {
		t.Fatalf("a steady-state ring step allocated %v objects (%.3f per completed flow), want 0",
			allocs, allocs/flows)
	}
}
