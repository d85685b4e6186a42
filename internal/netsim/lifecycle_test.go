package netsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"hpn/internal/prof"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/telemetry"
	"hpn/internal/topo"
)

// panicOf returns what fn panics with, or nil.
func panicOf(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// Sharded setup must precede the first flow and name a shard that
// exists, and a flow-ID base offsets every ID the Sim mints.
func TestShardSetupBeforeFlows(t *testing.T) {
	eng, _, s := newSim(t, 1, 4, 4)
	if r := panicOf(func() { s.RestrictShard(&topo.Sharding{N: 1}, 2) }); !strings.Contains(fmt.Sprint(r), "outside 1..1") {
		t.Errorf("RestrictShard to shard 2 of 1: panic %v, want one naming the range", r)
	}
	s.SetFlowIDBase(1000)
	f, err := s.StartFlow(route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 1, NIC: 0}, 1<<20, FlowOpts{SrcPort: 0})
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 1000 {
		t.Errorf("first flow after SetFlowIDBase(1000) has ID %d", f.ID)
	}
	for name, setup := range map[string]func(){
		"SetFlowIDBase": func() { s.SetFlowIDBase(5000) },
		"RestrictShard": func() { s.RestrictShard(&topo.Sharding{N: 1}, 1) },
	} {
		if r := panicOf(setup); !strings.Contains(fmt.Sprint(r), "after flows started") {
			t.Errorf("%s after a flow started: panic %v, want one saying so", name, r)
		}
	}
	eng.Run()
}

// A flow reports itself in the trace (a flow_start instant, one complete
// event spanning its lifetime, and the active_flows counter at both of
// its recomputes), in the FCT histogram, the recompute counter and the
// fill's one heap pop, and in ActiveFlows while it runs, and it leaves
// Remaining at zero.
func TestFlowTelemetry(t *testing.T) {
	eng, _, s := newSim(t, 1, 4, 4)
	tr, reg, pr := telemetry.NewTracer(0), telemetry.NewRegistry(), prof.New()
	s.AttachTelemetry(tr, reg, "")
	s.AttachProfiler(pr, nil)
	var remaining float64
	f, err := s.StartFlow(route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 1, NIC: 2}, 1<<20, FlowOpts{
		SrcPort: 0, OnComplete: func(_ sim.Time, f *Flow) { remaining = f.Remaining },
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Pin()
	if n := s.ActiveFlows(); n != 1 {
		t.Errorf("ActiveFlows = %d with one flow running", n)
	}
	eng.Run()
	if remaining != 0 {
		t.Errorf("a completed flow has %v bits remaining", remaining)
	}
	fct := f.DoneAt - f.StartedAt
	if n, sum := reg.SumSuffix("netsim_fct_seconds_count"), reg.SumSuffix("netsim_fct_seconds_sum"); n != 1 || sum != fct.Seconds() {
		t.Errorf("FCT histogram holds %v observations summing to %vs, want one of %vs", n, sum, fct.Seconds())
	}
	if n := reg.SumSuffix("netsim_recomputes_total"); n != 2 {
		t.Errorf("netsim_recomputes_total = %v, want 2 (start and completion)", n)
	}
	heapOps := int64(0)
	for _, ph := range pr.Snapshot() {
		if ph.Name == "netsim/heap_ops" {
			heapOps = ph.Count
		}
	}
	if heapOps != 1 {
		t.Errorf("netsim/heap_ops = %d, want the one pop that froze the flow", heapOps)
	}
	var b bytes.Buffer
	if _, err := tr.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name, Ph string
			Dur      float64
			Args     map[string]any
		}
	}
	if err := json.Unmarshal(b.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range trace.TraceEvents {
		switch e.Name {
		case "flow_start", "flow":
			got = append(got, fmt.Sprintf("%s %s %v %v %v %v", e.Name, e.Ph, e.Args["id"], e.Args["bytes"], e.Args["stalled"], e.Args["hops"]))
		case "active_flows":
			got = append(got, fmt.Sprintf("%s %s %v", e.Name, e.Ph, e.Args["value"]))
		}
	}
	want := fmt.Sprintf("[flow_start i 0 1.048576e+06 false <nil> active_flows C 1 flow X 0 1.048576e+06 <nil> %d active_flows C 0]", len(f.Path))
	if fmt.Sprint(got) != want {
		t.Errorf("flow trace events %v, want %s", got, want)
	}
}

// An aborted flow, stalled or not, is done: it carries no rate, and under
// in-band telemetry its path generation is flushed.
func TestAbortFlowEndsTheFlow(t *testing.T) {
	eng, _, s := newSim(t, 1, 4, 4)
	c := s.EnableInband(0)
	src, dst := route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 1, NIC: 0}
	a, err := s.StartFlow(src, dst, 1<<30, FlowOpts{SrcPort: 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.StartFlow(route.Endpoint{Host: 2, NIC: 1}, route.Endpoint{Host: 3, NIC: 1}, 1<<30, FlowOpts{SrcPort: 0})
	if err != nil {
		t.Fatal(err)
	}
	a.Pin()
	b.Pin()
	eng.RunUntil(sim.Millisecond)
	s.FailCable(b.Path[0])
	if !b.Stalled {
		t.Fatal("a flow on a failed cable is not stalled")
	}
	s.AbortFlow(a)
	s.AbortFlow(b)
	for _, f := range []*Flow{a, b} {
		if !f.Done() || f.Rate != 0 {
			t.Errorf("aborted flow %d: done %v, rate %v", f.ID, f.Done(), f.Rate)
		}
	}
	if n := len(c.Records()); n != len(a.Path)+len(b.Path) {
		t.Errorf("%d in-band records after aborting two flows, want one per hop (%d)", n, len(a.Path)+len(b.Path))
	}
	eng.Run()
}

// A flow whose source NIC has no live port stalls with no path and no hop
// decisions, and a later routed event of it carries none.
func TestNoLivePortStallsWithoutAPath(t *testing.T) {
	eng, top, s := newSim(t, 1, 4, 4)
	s.EnableInband(0)
	rec := &streamRecorder{kinds: EvFlowRouted}
	s.Subscribe(rec)
	f, err := s.StartFlow(route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 1, NIC: 0}, 1<<30, FlowOpts{SrcPort: 0})
	if err != nil {
		t.Fatal(err)
	}
	f.Pin()
	eng.RunUntil(sim.Millisecond)
	s.FailCable(top.AccessLink(0, 0, 0))
	s.FailCable(top.AccessLink(0, 0, 1))
	eng.RunUntil(3 * sim.Second)
	if !f.Stalled || len(f.Path) != 0 || len(f.ib.hops) != 0 {
		t.Fatalf("flow with no live port: stalled %v, path %v, %d hop decisions; want stalled with neither",
			f.Stalled, f.Path, len(f.ib.hops))
	}
	last := rec.evs[len(rec.evs)-1]
	if last.Flow.ID != f.ID || !last.Flow.Stalled || len(last.Hops) != 0 {
		t.Fatalf("last routed event %+v, want the stalled flow with no hops", last)
	}
	s.AbortFlow(f)
	eng.Run()
}

// A switch failure takes its links down, stalls exactly the flows through
// it and leaves routing unsettled until its convergence; its recovery
// brings the links back, settles routing at once and re-paths the flows
// it stranded.
func TestNodeFailureChain(t *testing.T) {
	eng, top, s := newSim(t, 1, 4, 4)
	dst := route.Endpoint{Host: 1, NIC: 0}
	via, err := s.StartFlow(route.Endpoint{Host: 0, NIC: 0}, dst, 1<<30, FlowOpts{SrcPort: 0})
	if err != nil {
		t.Fatal(err)
	}
	other, err := s.StartFlow(route.Endpoint{Host: 2, NIC: 3}, route.Endpoint{Host: 3, NIC: 3}, 1<<30, FlowOpts{SrcPort: 1})
	if err != nil {
		t.Fatal(err)
	}
	via.Pin()
	other.Pin()
	// Both ToRs of the destination NIC: via has no way around them.
	tors := []topo.NodeID{top.Link(top.AccessLink(1, 0, 0)).To, top.Link(top.AccessLink(1, 0, 1)).To}
	eng.RunUntil(sim.Millisecond)
	for _, n := range tors {
		s.FailNode(n)
	}
	if !via.Stalled || other.Stalled {
		t.Fatalf("after the ToR failures: flow through them stalled %v, other flow stalled %v; want only the first",
			via.Stalled, other.Stalled)
	}
	if top.LinkUsable(top.AccessLink(1, 0, 0)) || s.R.Settled(eng.Now()) {
		t.Fatal("a failed ToR's links stayed usable or routing settled at once")
	}
	eng.RunUntil(3 * sim.Second)
	if !via.Stalled || via.Done() {
		t.Fatal("a flow with no live path to its destination moved")
	}
	for _, n := range tors {
		s.RecoverNode(n)
	}
	if !top.LinkUsable(top.AccessLink(1, 0, 0)) || !s.R.Settled(eng.Now()) {
		t.Fatal("a recovered ToR's links stayed down or routing stayed unsettled")
	}
	eng.Run()
	if !via.Done() || !other.Done() {
		t.Fatalf("after recovery: stranded flow done %v, other flow done %v", via.Done(), other.Done())
	}
}

// A flow that starts blackholed after the last reroute pass arms one of
// its own, which re-paths it once routing converges. Here the pass of an
// earlier failure runs before the failure the flow meets, a delivery
// cable of its destination, converges; the flow's connection hashes onto
// that cable's plane.
func TestStalledStartArmsAReroute(t *testing.T) {
	eng, top, s := newSim(t, 1, 4, 4)
	s.FailCable(top.AccessLink(3, 0, 0))
	eng.Schedule(sim.Second/2, func() { s.FailCable(top.AccessLink(1, 0, 0)) })
	var stalled *Flow
	eng.Schedule(sim.Second*6/5, func() {
		for sport := uint16(1000); stalled == nil && sport < 1100; sport++ {
			f, err := s.StartFlow(route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 1, NIC: 0}, 1<<20,
				FlowOpts{SrcPort: 0, Sport: sport})
			if err != nil {
				t.Fatal(err)
			}
			if f.Stalled {
				stalled = f.Pin()
			}
		}
	})
	eng.Run()
	if stalled == nil {
		t.Fatal("no connection hashed onto the failed cable's plane")
	}
	if !stalled.Done() {
		t.Fatal("a flow that started blackholed never completed")
	}
}

// A rerouted flow's in-band records hold one path generation per route:
// the failed path, flushed when the flow re-paths, and the one it
// completes on.
func TestReroutedFlowFlushesEachPath(t *testing.T) {
	eng, _, s := newSim(t, 2, 4, 4)
	c := s.EnableInband(0)
	f := failRerouteRecover(t, s, eng)
	epochs := map[int]int{}
	for _, r := range c.Records() {
		if r.Flow == f.ID {
			epochs[r.Epoch]++
		}
	}
	if len(epochs) != 2 || epochs[1] != len(f.Path) || epochs[0] == 0 {
		t.Fatalf("records per path generation %v, want the failed path's and %d of the final one", epochs, len(f.Path))
	}
}

// A flow with no transport source port gets the next one from the
// ephemeral range, 49152 up, wrapping back to its start.
func TestAutoSportsAreEphemeral(t *testing.T) {
	eng, _, s := newSim(t, 1, 4, 4)
	for _, want := range []uint16{49153, 49154, 65535, 49152} {
		if want == 65535 {
			s.sport = 65534
		}
		f, err := s.StartFlow(route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 1, NIC: 0}, 1<<20, FlowOpts{SrcPort: 0})
		if err != nil {
			t.Fatal(err)
		}
		if f.Tuple.SrcPort != want {
			t.Errorf("auto-assigned sport %d, want %d", f.Tuple.SrcPort, want)
		}
	}
	eng.Run()
}

// A recompute that leaves no flow moving cancels the pending completion.
func TestAllStalledCancelsCompletion(t *testing.T) {
	eng, _, s := newSim(t, 1, 4, 4)
	f, err := s.StartFlow(route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 1, NIC: 0}, 1<<30, FlowOpts{SrcPort: 0})
	if err != nil {
		t.Fatal(err)
	}
	s.FailCable(f.Path[0])
	if s.completionEv != nil || eng.Pending() != 1 {
		t.Fatalf("with every flow stalled: completion handle %v, %d events pending; want none but the reroute",
			s.completionEv, eng.Pending())
	}
	eng.Run()
}
