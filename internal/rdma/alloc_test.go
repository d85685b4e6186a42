//go:build !hpncheck

// hpncheck builds never recycle flows or events, so they allocate by design.

package rdma

import (
	"runtime"
	"testing"

	"hpn/internal/netsim"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/telemetry"
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

// newRing builds a DP ring of chunks chunks per host over the simulator,
// after attach has set its observers up, and runs it to steady state.
func newRing(t *testing.T, attach func(*netsim.Sim)) (*dpRing, *netsim.Sim) {
	eng, net := newNet(t, 2, 4, 4)
	attach(net)
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
	return r, net
}

// TestRingStepAllocatesNothing is the allocation guard of the per-flow hot
// path: once a DP ring over RDMA connection sets reaches steady state, a
// further ring step — StartFlow, routing, rate allocation, completion and
// the WQE callbacks for every chunk — must allocate no object at all. A
// completed flow is recycled with its path buffer, the ECMP group is built
// in router scratch and the completion event comes from the engine's pool.
func TestRingStepAllocatesNothing(t *testing.T) {
	r, net := newRing(t, func(*netsim.Sim) {})
	hosts := len(net.Top.Hosts)
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

// TestTracedRingStepAllocatesOnlyChunks is the same guard with a tracer
// and in-band telemetry attached: every flow then emits spans, instants,
// counters and per-hop records, and all of it lands in chunked stores, so
// a steady-state ring step allocates only its share of chunk growth.
func TestTracedRingStepAllocatesOnlyChunks(t *testing.T) {
	r, net := newRing(t, func(net *netsim.Sim) {
		net.AttachTelemetry(telemetry.NewTracer(0), nil, "")
		net.EnableInband(0)
	})
	const steps = 200
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, before := ms.Mallocs, net.CompletedFlows
	for i := 0; i < steps; i++ {
		r.step()
	}
	runtime.ReadMemStats(&ms)
	flows := float64(net.CompletedFlows - before)
	perFlow := float64(ms.Mallocs-mallocs) / flows
	t.Logf("%.4f objects per completed flow", perFlow)
	if perFlow > 0.05 {
		t.Fatalf("a traced steady-state ring step allocated %.3f objects per completed flow, want <= 0.05", perFlow)
	}
	if net.Trace.Events() < int(flows) || len(net.Inband().Records()) < int(flows) {
		t.Fatalf("%v flows left %d trace events and %d in-band records", flows, net.Trace.Events(), len(net.Inband().Records()))
	}
}
