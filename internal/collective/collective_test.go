package collective

import (
	"math"
	"testing"

	"hpn/internal/netsim"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

func newNet(t *testing.T, segments, hosts, aggs int) *netsim.Sim {
	t.Helper()
	top, err := topo.BuildHPN(topo.SmallHPN(segments, hosts, aggs))
	if err != nil {
		t.Fatal(err)
	}
	return netsim.New(sim.New(), top)
}

func hostsRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestNewGroupEstablishesRings(t *testing.T) {
	net := newNet(t, 1, 8, 8)
	g, err := NewGroup(net, DefaultConfig(), hostsRange(8), 8)
	if err != nil {
		t.Fatal(err)
	}
	if g.GPUs() != 64 {
		t.Fatalf("GPUs = %d, want 64", g.GPUs())
	}
	probes := 0
	for _, rail := range g.conns {
		for _, cs := range rail {
			probes += cs.Probes
		}
	}
	if probes == 0 {
		t.Fatal("no establishment probes recorded")
	}
	for r := 0; r < 8; r++ {
		for i := range g.Hosts {
			if len(g.conns[r][i].Conns) == 0 {
				t.Fatalf("missing conns rail %d pair %d", r, i)
			}
		}
	}
}

func TestGroupRejectsTooFewHosts(t *testing.T) {
	net := newNet(t, 1, 4, 4)
	if _, err := NewGroup(net, DefaultConfig(), []int{0}, 8); err == nil {
		t.Fatal("1-host group accepted")
	}
}

// AllReduce within one segment: the inter-host stage is ToR-local on each
// rail, so its duration must closely match the analytic ring time
// 2(H-1)/H * S/8 / 400Gbps plus the two NVLink stages.
func TestAllReduceMatchesAnalyticBound(t *testing.T) {
	net := newNet(t, 1, 8, 8)
	g, err := NewGroup(net, DefaultConfig(), hostsRange(8), 8)
	if err != nil {
		t.Fatal(err)
	}
	const S = 256 << 20
	res, err := g.AllReduce(S)
	if err != nil {
		t.Fatal(err)
	}
	h := 8.0
	inter := 2 * (h - 1) / h * (S / 8.0) / 50e9 // 400Gbps NIC = 50 GB/s
	intra := 2 * S * (7.0 / 8) / (nvlinkReduceGBps * 1e9)
	want := inter + intra
	got := res.Elapsed.Seconds()
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("AllReduce elapsed %v s, want ~%v s", got, want)
	}
	if res.BusBW <= 0 || res.AlgBW <= 0 {
		t.Fatal("bandwidths not reported")
	}
	// BusBW = 2(n-1)/n * algbw.
	n := 64.0
	if math.Abs(res.BusBW-res.AlgBW*2*(n-1)/n) > 1e-6*res.BusBW {
		t.Fatal("BusBW convention violated")
	}
}

// AllGather must be insensitive to message path quality when the NVSwitch
// stage dominates (Figure 17b's story).
func TestAllGatherNVSwitchBound(t *testing.T) {
	net := newNet(t, 1, 8, 8)
	g, err := NewGroup(net, DefaultConfig(), hostsRange(8), 8)
	if err != nil {
		t.Fatal(err)
	}
	const S = 1 << 30
	res, err := g.AllGather(S)
	if err != nil {
		t.Fatal(err)
	}
	intra := S * (7.0 / 8) / (nvlinkGatherGBps * 1e9)
	if res.Elapsed.Seconds() < intra*0.999 {
		t.Fatalf("AllGather %v s faster than its NVSwitch stage %v s", res.Elapsed.Seconds(), intra)
	}
	// The NVSwitch stage must be the dominant term (>60% of total).
	if intra/res.Elapsed.Seconds() < 0.6 {
		t.Fatalf("NVSwitch stage only %.0f%% of AllGather; model should be NVSwitch-bound",
			100*intra/res.Elapsed.Seconds())
	}
}

// Multi-AllReduce pushes all data through the network: its elapsed time
// must be >= the pure network ring bound and have no NVLink component.
func TestMultiAllReduce(t *testing.T) {
	net := newNet(t, 1, 8, 8)
	g, err := NewGroup(net, DefaultConfig(), hostsRange(8), 8)
	if err != nil {
		t.Fatal(err)
	}
	const S = 256 << 20
	res, err := g.MultiAllReduce(S)
	if err != nil {
		t.Fatal(err)
	}
	h := 8.0
	bound := 2 * (h - 1) / h * S / 50e9
	got := res.Elapsed.Seconds()
	if got < bound*0.99 {
		t.Fatalf("Multi-AllReduce %v s beats the ring bound %v s", got, bound)
	}
	if got > bound*1.5 {
		t.Fatalf("Multi-AllReduce %v s far above bound %v s on an uncontended segment", got, bound)
	}
}

// Larger messages must take proportionally longer (fluid model sanity).
func TestScalingWithSize(t *testing.T) {
	net := newNet(t, 1, 4, 4)
	g, err := NewGroup(net, DefaultConfig(), hostsRange(4), 8)
	if err != nil {
		t.Fatal(err)
	}
	small, err := g.AllReduce(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	big, err := g.AllReduce(512 << 20)
	if err != nil {
		t.Fatal(err)
	}
	ratio := big.Elapsed.Seconds() / small.Elapsed.Seconds()
	if ratio < 7 || ratio > 9 {
		t.Fatalf("8x size scaled time by %.2f, want ~8", ratio)
	}
}

// Busbw convention for AllGather.
func TestAllGatherBusBW(t *testing.T) {
	net := newNet(t, 1, 4, 4)
	g, err := NewGroup(net, DefaultConfig(), hostsRange(4), 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.AllGather(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	n := 32.0
	if math.Abs(res.BusBW-res.AlgBW*(n-1)/n) > 1e-6*res.BusBW {
		t.Fatal("AllGather BusBW convention violated")
	}
}

// The disjoint policy must not be slower than the single-connection policy
// on a contended cross-segment workload, and concurrent AllReduces should
// see a measurable benefit (the §6.1 optimization).
func TestDisjointBeatsSingleUnderContention(t *testing.T) {
	mk := func(policy PathPolicy) float64 {
		top, err := topo.BuildHPN(topo.SmallHPN(2, 8, 4))
		if err != nil {
			t.Fatal(err)
		}
		net := netsim.New(sim.New(), top)
		cfg := DefaultConfig()
		cfg.Policy = policy
		if policy == PolicySingle {
			cfg.ConnsPerPair = 1
			cfg.ChunksPerMessage = 1
		}
		// Group spanning both segments: cross-segment ring traffic.
		g, err := NewGroup(net, cfg, hostsRange(16), 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.AllReduce(256 << 20)
		if err != nil {
			t.Fatal(err)
		}
		return res.BusBW
	}
	disjoint := mk(PolicyDisjoint)
	single := mk(PolicySingle)
	if disjoint < single*0.98 {
		t.Fatalf("disjoint busbw %v < single %v", disjoint, single)
	}
}

func TestOpRejectsBadSize(t *testing.T) {
	net := newNet(t, 1, 4, 4)
	g, err := NewGroup(net, DefaultConfig(), hostsRange(4), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.StartAllReduce(0, nil); err == nil {
		t.Fatal("zero-size allreduce accepted")
	}
	if _, err := g.StartAllGather(-1, nil); err == nil {
		t.Fatal("negative allgather accepted")
	}
	if _, err := g.StartMultiAllReduce(0, nil); err == nil {
		t.Fatal("zero multiallreduce accepted")
	}
}

// A collective survives a mid-operation access-link failure on a dual-ToR
// fabric: the op stalls through convergence and then completes.
func TestAllReduceSurvivesMidOpFailure(t *testing.T) {
	top, err := topo.BuildHPN(topo.SmallHPN(2, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := netsim.New(eng, top)
	g, err := NewGroup(net, DefaultConfig(), hostsRange(8), 8)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	done := false
	if _, err := g.StartAllReduce(2<<30, func(_ sim.Time, r Result) { res, done = r, true }); err != nil {
		t.Fatal(err)
	}
	eng.Schedule(2*sim.Millisecond, func() {
		net.FailCable(top.AccessLink(0, 0, 0))
	})
	eng.Run()
	if !done {
		t.Fatal("collective never completed after failover")
	}
	// It must have absorbed at least the convergence delay.
	if res.Elapsed < sim.Second {
		t.Fatalf("elapsed %v suspiciously fast given a 1s convergence stall", res.Elapsed)
	}
}
