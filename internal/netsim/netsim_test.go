package netsim

import (
	"math"
	"strings"
	"testing"

	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

func newSim(t *testing.T, segments, hosts, aggs int) (*sim.Engine, *topo.Topology, *Sim) {
	t.Helper()
	top, err := topo.BuildHPN(topo.SmallHPN(segments, hosts, aggs))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	return eng, top, New(eng, top)
}

func TestSingleFlowFCT(t *testing.T) {
	eng, _, s := newSim(t, 2, 4, 4)
	var doneAt sim.Time
	_, err := s.StartFlow(route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 4, NIC: 0}, 1<<30, FlowOpts{
		SrcPort:    -1,
		OnComplete: func(now sim.Time, f *Flow) { doneAt = now },
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// 1 GiB over a 200Gbps access bottleneck: 8*2^30/200e9 s = ~42.9 ms.
	want := float64(8*(1<<30)) / 200e9
	if math.Abs(doneAt.Seconds()-want)/want > 0.001 {
		t.Fatalf("FCT = %v s, want %v s", doneAt.Seconds(), want)
	}
	if s.CompletedFlows != 1 {
		t.Fatalf("CompletedFlows = %d", s.CompletedFlows)
	}
}

func TestFairShareOnSharedAccess(t *testing.T) {
	eng, _, s := newSim(t, 2, 4, 4)
	src := route.Endpoint{Host: 0, NIC: 0}
	var f1, f2 *Flow
	f1, _ = s.StartFlow(src, route.Endpoint{Host: 4, NIC: 0}, 1<<30, FlowOpts{SrcPort: 0})
	f2, _ = s.StartFlow(src, route.Endpoint{Host: 5, NIC: 0}, 1<<30, FlowOpts{SrcPort: 0})
	// Both flows leave the same 200G NIC port: each must get 100G.
	if math.Abs(f1.Rate-100e9) > 1e6 || math.Abs(f2.Rate-100e9) > 1e6 {
		t.Fatalf("rates = %v, %v; want 100G each", f1.Rate, f2.Rate)
	}
	eng.Run()
}

func TestWorkConservationAndBottleneck(t *testing.T) {
	eng, top, s := newSim(t, 2, 8, 4)
	// Start a batch of random-ish flows, then verify the max-min
	// certificate: no link over capacity; every flow is bottlenecked (some
	// saturated link on its path where it has a maximal rate).
	for i := 0; i < 40; i++ {
		src := route.Endpoint{Host: i % 8, NIC: i % 8}
		dst := route.Endpoint{Host: 8 + (i+3)%8, NIC: i % 8}
		if _, err := s.StartFlow(src, dst, 1<<32, FlowOpts{SrcPort: -1}); err != nil {
			t.Fatal(err)
		}
	}
	used := map[topo.LinkID]float64{}
	maxOn := map[topo.LinkID]float64{}
	for _, f := range s.active {
		if f.Stalled {
			t.Fatal("unexpected stall on a healthy fabric")
		}
		if f.Rate <= 0 {
			t.Fatal("zero rate on a healthy fabric")
		}
		for _, lk := range f.Path {
			used[lk] += f.Rate
			if f.Rate > maxOn[lk] {
				maxOn[lk] = f.Rate
			}
		}
	}
	for lk, u := range used {
		cap := top.Link(lk).CapBps
		if u > cap*(1+1e-6) {
			t.Fatalf("link %d oversubscribed: %v > %v", lk, u, cap)
		}
	}
	for _, f := range s.active {
		bottlenecked := false
		for _, lk := range f.Path {
			cap := top.Link(lk).CapBps
			if used[lk] >= cap*(1-1e-6) && f.Rate >= maxOn[lk]*(1-1e-6) {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			t.Fatalf("flow %d (rate %v) has no bottleneck: not max-min", f.ID, f.Rate)
		}
	}
	eng.Run()
	if s.ActiveFlows() != 0 {
		t.Fatalf("flows left active: %d", s.ActiveFlows())
	}
}

func TestCompletionChaining(t *testing.T) {
	eng, _, s := newSim(t, 1, 4, 4)
	rounds := 0
	var start func()
	start = func() {
		rounds++
		if rounds > 5 {
			return
		}
		_, err := s.StartFlow(route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 1, NIC: 0}, 1<<20, FlowOpts{
			SrcPort:    -1,
			OnComplete: func(now sim.Time, f *Flow) { start() },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	start()
	eng.Run()
	if rounds != 6 {
		t.Fatalf("rounds = %d, want 6", rounds)
	}
}

func TestAccessFailureFailover(t *testing.T) {
	eng, top, s := newSim(t, 2, 4, 4)
	src := route.Endpoint{Host: 0, NIC: 0}
	dst := route.Endpoint{Host: 4, NIC: 0}
	var done bool
	f, err := s.StartFlow(src, dst, 4<<30, FlowOpts{SrcPort: 0, OnComplete: func(now sim.Time, _ *Flow) { done = true }})
	if err != nil {
		t.Fatal(err)
	}
	f.Pin() // its port and completion time are checked after Run
	// Fail the flow's first link shortly after start.
	eng.Schedule(10*sim.Millisecond, func() {
		s.FailCable(f.Path[0])
	})
	eng.Run()
	if !done {
		t.Fatal("flow never completed after failover")
	}
	if f.Port != 1 {
		t.Fatalf("flow still on port %d, want failover to 1", f.Port)
	}
	// It must have taken at least the convergence delay longer than the
	// unobstructed FCT (4GiB at 200G = ~172ms).
	base := float64(8*uint64(4<<30)) / 200e9
	if f.DoneAt.Seconds() < base {
		t.Fatalf("completed impossibly fast: %v", f.DoneAt)
	}
	_ = top
}

func TestSingleToRFailureHaltsUntilRepair(t *testing.T) {
	cfg := topo.SmallHPN(2, 4, 4)
	cfg.DualToR = false
	cfg.DualPlane = false
	top, err := topo.BuildHPN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	s := New(eng, top)
	src := route.Endpoint{Host: 0, NIC: 0}
	dst := route.Endpoint{Host: 4, NIC: 0}
	var doneAt sim.Time
	f, err := s.StartFlow(src, dst, 1<<30, FlowOpts{SrcPort: -1, OnComplete: func(now sim.Time, _ *Flow) { doneAt = now }})
	if err != nil {
		t.Fatal(err)
	}
	access := f.Path[0]
	eng.Schedule(5*sim.Millisecond, func() { s.FailCable(access) })
	// Without repair the flow must still be stalled after 10 virtual
	// seconds.
	eng.RunUntil(10 * sim.Second)
	if doneAt != 0 {
		t.Fatal("single-ToR flow completed with its only access link dead")
	}
	if s.StalledFlows() != 1 {
		t.Fatalf("stalled = %d, want 1", s.StalledFlows())
	}
	// Repair at t=10s: the flow finishes.
	s.RecoverCable(access)
	eng.Run()
	if doneAt == 0 {
		t.Fatal("flow did not resume after repair")
	}
	if doneAt < 10*sim.Second {
		t.Fatalf("doneAt = %v, expected after repair", doneAt)
	}
}

func TestToRCrashFailover(t *testing.T) {
	eng, top, s := newSim(t, 2, 4, 4)
	src := route.Endpoint{Host: 0, NIC: 3}
	dst := route.Endpoint{Host: 4, NIC: 3}
	done := false
	_, err := s.StartFlow(src, dst, 1<<30, FlowOpts{SrcPort: 0, OnComplete: func(sim.Time, *Flow) { done = true }})
	if err != nil {
		t.Fatal(err)
	}
	tor := top.Link(top.AccessLink(0, 3, 0)).To
	eng.Schedule(sim.Millisecond, func() { s.FailNode(tor) })
	eng.Run()
	if !done {
		t.Fatal("flow stuck after ToR crash despite dual-ToR")
	}
}

func TestQueueProxyImbalance(t *testing.T) {
	eng, top, s := newSim(t, 2, 4, 4)
	// Two senders in segment 1 both target host0/NIC0 port0 in segment 0:
	// 400G of offered load into a single 200G ToR downlink.
	dst := route.Endpoint{Host: 0, NIC: 0}
	down := top.Link(top.AccessLink(0, 0, 0)).Reverse
	probe := s.TrackLink(down)
	for i := 0; i < 2; i++ {
		src := route.Endpoint{Host: 4 + i, NIC: 0}
		if _, err := s.StartFlow(src, dst, 8<<30, FlowOpts{SrcPort: 0}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if probe.Queue.Max() <= 0 {
		t.Fatal("overloaded port accumulated no queue pressure")
	}
	// A balanced single flow must not accumulate queue.
	eng2 := sim.New()
	s2 := New(eng2, top)
	probe2 := s2.TrackLink(down)
	if _, err := s2.StartFlow(route.Endpoint{Host: 4, NIC: 0}, dst, 8<<30, FlowOpts{SrcPort: 0}); err != nil {
		t.Fatal(err)
	}
	eng2.Run()
	if probe2.Queue.Max() > 1 {
		t.Fatalf("balanced port shows queue %v", probe2.Queue.Max())
	}
}

// A probed link that fails while it holds queue drains at its capacity:
// no runnable flow crosses a down link, so it offers no demand, and its
// queue empties as the in-band model's does.
func TestFailedProbedLinkDrains(t *testing.T) {
	eng, top, s := newSim(t, 2, 4, 4)
	dst := route.Endpoint{Host: 0, NIC: 0}
	down := top.Link(top.AccessLink(0, 0, 0)).Reverse
	probe := s.TrackLink(down)
	for i := 0; i < 2; i++ {
		if _, err := s.StartFlow(route.Endpoint{Host: 4 + i, NIC: 0}, dst, 8<<30, FlowOpts{SrcPort: 0}); err != nil {
			t.Fatal(err)
		}
	}
	const failAt, readAt = sim.Millisecond, sim.Millisecond + 100*sim.Microsecond
	eng.Schedule(failAt, func() { s.FailCable(down) })
	eng.Schedule(readAt, s.SyncTime)
	eng.Run()

	at := func(t0 sim.Time) float64 {
		for _, p := range probe.Queue.Points {
			if p.T == t0.Seconds() {
				return p.V
			}
		}
		t.Fatalf("no queue sample at %v", t0)
		return 0
	}
	q0 := at(failAt)
	if q0 < portBufferBytes/2 {
		t.Fatalf("queue at the failure = %v B, want the oversubscribed port near its buffer", q0)
	}
	want := q0 - top.Link(down).CapBps/8*(readAt-failAt).Seconds()
	if got := at(readAt); math.Abs(got-want) > 1 {
		t.Fatalf("queue %v after the failure = %v B, want %v B (draining at capacity from %v B)",
			readAt-failAt, got, want, q0)
	}
	if last := probe.Queue.Points[probe.Queue.Len()-1].V; last != 0 {
		t.Fatalf("failed link's queue ends at %v B, want drained", last)
	}
}

func TestProbeUtilSeries(t *testing.T) {
	eng, top, s := newSim(t, 1, 2, 2)
	up := top.AccessLink(0, 0, 0)
	probe := s.TrackLink(up)
	if _, err := s.StartFlow(route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 1, NIC: 0}, 1<<30, FlowOpts{SrcPort: 0}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if probe.Util.Max() < 199e9 {
		t.Fatalf("probe util max = %v, want ~200G", probe.Util.Max())
	}
}

func TestStartFlowRejectsBadSize(t *testing.T) {
	_, _, s := newSim(t, 1, 2, 2)
	if _, err := s.StartFlow(route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 1, NIC: 0}, 0, FlowOpts{SrcPort: -1}); err == nil {
		t.Fatal("zero-size flow accepted")
	}
}

func TestManyFlowsDrainCompletely(t *testing.T) {
	eng, _, s := newSim(t, 2, 8, 8)
	n := 0
	for i := 0; i < 128; i++ {
		src := route.Endpoint{Host: i % 16, NIC: (i / 2) % 8}
		dst := route.Endpoint{Host: (i + 7) % 16, NIC: (i / 2) % 8}
		if src.Host == dst.Host {
			continue
		}
		n++
		if _, err := s.StartFlow(src, dst, float64(1+i%7)*(1<<24), FlowOpts{SrcPort: -1}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if int(s.CompletedFlows) != n {
		t.Fatalf("completed %d of %d flows", s.CompletedFlows, n)
	}
	if s.ActiveFlows() != 0 {
		t.Fatal("active flows remain after Run")
	}
}

func TestAbortFlow(t *testing.T) {
	eng, _, s := newSim(t, 1, 2, 2)
	called := false
	f, err := s.StartFlow(route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 1, NIC: 0}, 1<<30, FlowOpts{
		SrcPort:    -1,
		OnComplete: func(sim.Time, *Flow) { called = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.AbortFlow(f)
	if s.ActiveFlows() != 0 {
		t.Fatal("aborted flow still active")
	}
	eng.Run()
	if called {
		t.Fatal("aborted flow fired its completion callback")
	}
	// Double-abort and nil-abort are no-ops.
	s.AbortFlow(f)
	s.AbortFlow(nil)
}

func TestTierBitsAccounting(t *testing.T) {
	eng, _, s := newSim(t, 2, 4, 4)
	// Same-rail, same-segment: ToR-local, no agg crossing.
	if _, err := s.StartFlow(route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 1, NIC: 0}, 1<<20, FlowOpts{SrcPort: -1}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if s.AggBits.Float() != 0 {
		t.Fatalf("ToR-local flow counted %v agg bits", s.AggBits.Float())
	}
	// Cross-segment: must cross an agg.
	if _, err := s.StartFlow(route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 4, NIC: 0}, 1<<20, FlowOpts{SrcPort: -1}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if s.AggBits.Float() != 8<<20 {
		t.Fatalf("agg bits = %v, want %v", s.AggBits.Float(), 8<<20)
	}
	if s.CoreBits.Float() != 0 {
		t.Fatal("single-pod flow counted core bits")
	}
}

func TestFlowLog(t *testing.T) {
	eng, _, s := newSim(t, 2, 4, 4)
	s.EnableFlowLog()
	for i := 0; i < 4; i++ {
		if _, err := s.StartFlow(route.Endpoint{Host: i, NIC: 0}, route.Endpoint{Host: 4 + i, NIC: 0}, 1<<20, FlowOpts{SrcPort: -1}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	log := s.FlowLog()
	if len(log) != 4 {
		t.Fatalf("records = %d, want 4", len(log))
	}
	for _, r := range log {
		if !r.CrossedAgg {
			t.Fatal("cross-segment flow not marked agg-crossing")
		}
		if r.Gbps() <= 0 || r.Duration() <= 0 {
			t.Fatalf("bad record %+v", r)
		}
	}
	var buf strings.Builder
	if err := s.WriteFlowLog(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 5 {
		t.Fatalf("tsv lines = %d, want header+4", lines)
	}
}
