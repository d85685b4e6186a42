package workload

import (
	"math"
	"testing"

	"hpn/internal/collective"
	"hpn/internal/netsim"
	"hpn/internal/sim"
	"hpn/internal/telemetry"
	"hpn/internal/topo"
)

func TestTable3Volumes(t *testing.T) {
	rows := Table3()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// DP: 175e9/64*2 = 5.47GB (paper: 5.5GB) — derived, so check tightly.
	if math.Abs(rows[0].Bytes-5.5e9)/5.5e9 > 0.02 {
		t.Errorf("DP volume = %.3g, want ~5.5GB", rows[0].Bytes)
	}
	// PP: ~6MB.
	if math.Abs(rows[1].Bytes-6e6)/6e6 > 0.1 {
		t.Errorf("PP volume = %.3g, want ~6MB", rows[1].Bytes)
	}
	// TP: ~560MB.
	if math.Abs(rows[2].Bytes-560e6)/560e6 > 0.02 {
		t.Errorf("TP volume = %.3g, want ~560MB", rows[2].Bytes)
	}
	if rows[0].Operation != "AllReduce" || rows[1].Operation != "Send/Recv" {
		t.Error("operations mislabeled")
	}
	// Ordering: PP << TP << DP (the §7 argument for cross-pod PP).
	if !(rows[1].Bytes < rows[2].Bytes && rows[2].Bytes < rows[0].Bytes) {
		t.Error("volume ordering violated")
	}
}

func TestJobSizeDist(t *testing.T) {
	d := JobSizeDist(10000, 1)
	if got := d.CDFAt(1024); got < 0.94 || got > 0.99 {
		t.Errorf("CDF(1024) = %v, want ~0.963", got)
	}
	if d.Percentile(100) >= 3000 {
		t.Errorf("max job size %v, want < 3K", d.Percentile(100))
	}
	if d.Percentile(100) <= 1024 {
		t.Errorf("no large jobs generated")
	}
}

func TestCheckpointEconomics(t *testing.T) {
	c := DefaultCheckpointModel()
	if iv := c.IntervalSeconds(); iv != 2000 {
		t.Fatalf("min interval = %v, want 2000s", iv)
	}
	hours := Figure4Intervals()
	if len(hours) != 4 {
		t.Fatal("want 4 representative jobs")
	}
	for _, h := range hours {
		if h < 2 || h > 4.2 {
			t.Errorf("interval %vh outside the 2-4h band", h)
		}
	}
	// $20K/hour, ~3h interval -> ~$30K per crash.
	cost := RollbackCostDollars(3, 20000)
	if cost != 30000 {
		t.Errorf("rollback cost = %v, want 30000", cost)
	}
}

func TestConnectionsPerHost(t *testing.T) {
	d := ConnectionsPerHost(5000, 2)
	if lo := d.Percentile(1); lo < 10 || lo > 200 {
		t.Errorf("P1 conns = %v, want few dozen", lo)
	}
	if hi := d.Percentile(99); hi > 1000 {
		t.Errorf("P99 conns = %v, want hundreds at most", hi)
	}
}

func TestCloudTraffic(t *testing.T) {
	pts := CloudTraffic(3)
	if len(pts) != 288 {
		t.Fatalf("samples = %d", len(pts))
	}
	maxIn, maxConn := 0.0, 0.0
	for _, p := range pts {
		if p.InGbps > maxIn {
			maxIn = p.InGbps
		}
		if p.Connections > maxConn {
			maxConn = p.Connections
		}
	}
	// Utilization stays far below NIC capacity; connections ~100K+.
	if maxIn > 3 {
		t.Errorf("cloud in-traffic peaks at %v Gbps, want ~2", maxIn)
	}
	if maxConn < 100e3 {
		t.Errorf("connections peak %v, want >100K", maxConn)
	}
}

func TestComputeSecondsScaleInvariant(t *testing.T) {
	// The global batch scales with the job (BatchPerGPU is fixed), so
	// per-iteration compute time is the same at any GPU count, while
	// absolute throughput doubles with 2x GPUs.
	a := ComputeSeconds(GPT175B, 448)
	b := ComputeSeconds(GPT175B, 896)
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("compute time must be scale-invariant: %v vs %v", a, b)
	}
	s1 := SamplesPerSecond(GPT175B, 448, a)
	s2 := SamplesPerSecond(GPT175B, 896, b)
	if math.Abs(s2/s1-2) > 1e-9 {
		t.Fatalf("samples/s must double with 2x GPUs: %v vs %v", s1, s2)
	}
}

func TestIterationOverlap(t *testing.T) {
	m := LLaMa7B
	c := ComputeSeconds(m, 64)
	// Fully hidden comm: iteration = compute.
	if got := IterationSeconds(m, 64, m.Overlap*c*0.5); got != c {
		t.Fatalf("hidden comm should cost nothing: %v vs %v", got, c)
	}
	// Exposed comm adds beyond the overlap budget.
	if got := IterationSeconds(m, 64, m.Overlap*c+1); math.Abs(got-(c+1)) > 1e-9 {
		t.Fatalf("exposed comm accounting wrong: %v", got)
	}
}

func TestJobShapes(t *testing.T) {
	hosts := make([]int, 8)
	for i := range hosts {
		hosts[i] = i
	}
	// TP=8, PP=2, DP=4: 64 GPUs over 8 hosts.
	job, err := NewJob(LLaMa13B, Parallelism{TP: 8, PP: 2, DP: 4}, hosts)
	if err != nil {
		t.Fatal(err)
	}
	groups := job.DPGroups()
	if len(groups) != 2 {
		t.Fatalf("DP groups = %d, want 2 (one per stage)", len(groups))
	}
	for _, g := range groups {
		if len(g) != 4 {
			t.Fatalf("group size = %d, want DP=4", len(g))
		}
	}
	pairs := job.PPPairs()
	if len(pairs) != 4 { // (PP-1) x DP
		t.Fatalf("PP pairs = %d, want 4", len(pairs))
	}
	if _, err := NewJob(LLaMa13B, Parallelism{TP: 8, PP: 2, DP: 4}, hosts[:4]); err == nil {
		t.Fatal("host-count mismatch accepted")
	}
	if _, err := NewJob(LLaMa13B, Parallelism{TP: 0, PP: 1, DP: 1}, nil); err == nil {
		t.Fatal("degenerate parallelism accepted")
	}
}

func TestTrainerRunsIterations(t *testing.T) {
	top, err := topo.BuildHPN(topo.SmallHPN(1, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(sim.New(), top)
	hosts := []int{0, 1, 2, 3, 4, 5, 6, 7}
	job, err := NewJob(LLaMa13B, Parallelism{TP: 8, PP: 1, DP: 8}, hosts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(net, job, collective.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(3); err != nil {
		t.Fatal(err)
	}
	net.Eng.Run()
	if tr.Iterations != 3 {
		t.Fatalf("iterations = %d, want 3", tr.Iterations)
	}
	if tr.Perf.Len() != 3 || tr.MeanSamplesPerSecond() <= 0 {
		t.Fatal("performance series missing")
	}
	if tr.CommSeconds.Mean() <= 0 {
		t.Fatal("no communication time measured")
	}
	if tr.running {
		t.Fatal("trainer still running after completion")
	}
}

// The NIC burst pattern of Figure 2: during training, access-link
// utilization alternates between ~0 (compute) and full port speed (sync).
func TestTrainingBurstPattern(t *testing.T) {
	top, err := topo.BuildHPN(topo.SmallHPN(1, 4, 8))
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(sim.New(), top)
	probe := net.TrackLink(top.AccessLink(0, 0, 0))
	hosts := []int{0, 1, 2, 3}
	job, err := NewJob(LLaMa13B, Parallelism{TP: 8, PP: 1, DP: 4}, hosts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(net, job, collective.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(2); err != nil {
		t.Fatal(err)
	}
	net.Eng.Run()
	if probe.Util.Max() < 150e9 {
		t.Fatalf("burst peak = %v, want near port speed", probe.Util.Max())
	}
	if probe.Util.Min() > 1e9 {
		t.Fatalf("quiet phase = %v, want near zero", probe.Util.Min())
	}
}

// PP traffic crosses stage boundaries each iteration and is included in the
// sync barrier.
func TestTrainerPPTraffic(t *testing.T) {
	top, err := topo.BuildHPN(topo.SmallHPN(1, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(sim.New(), top)
	hosts := []int{0, 1, 2, 3, 4, 5, 6, 7}
	job, err := NewJob(GPT175B, Parallelism{TP: 8, PP: 2, DP: 4}, hosts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(net, job, collective.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(2); err != nil {
		t.Fatal(err)
	}
	net.Eng.Run()
	if tr.Iterations != 2 {
		t.Fatalf("iterations = %d", tr.Iterations)
	}
	// 4 PP pairs x 8 rails x 2 directions x 2 iterations x PPVolume.
	wantPP := 4.0 * 8 * 2 * 2 * PPVolume(GPT175B) * 8 // bits
	wantGrad := 2.0 * 2 * DPVolume(GPT175B, job.Par)  // per-group per-iter... sanity only
	_ = wantGrad
	if net.CompletedBits.Float() < wantPP {
		t.Fatalf("completed bits %v below PP volume %v", net.CompletedBits.Float(), wantPP)
	}
	// Disabling PP traffic removes those flows.
	net2 := netsim.New(sim.New(), top)
	tr2, err := NewTrainer(net2, job, collective.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr2.MicrobatchesPerIteration = 0
	if err := tr2.Start(2); err != nil {
		t.Fatal(err)
	}
	net2.Eng.Run()
	if net2.CompletedBits.Float() >= net.CompletedBits.Float() {
		t.Fatal("PP traffic did not add bits")
	}
}

// An iteration's PP sends all start at one instant, so they must share one
// rate recomputation: the whole iteration, collectives and completions
// included, recomputes fewer times than it starts PP flows. Launching them
// one StartFlow at a time costs one recompute per flow on its own.
func TestPPLaunchRecomputesOnce(t *testing.T) {
	top, err := topo.BuildHPN(topo.SmallHPN(2, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(sim.New(), top)
	reg := telemetry.NewRegistry()
	net.AttachTelemetry(nil, reg, "")
	hosts := make([]int, 16)
	for i := range hosts {
		hosts[i] = i
	}
	job, err := NewJob(GPT175B, Parallelism{TP: 8, PP: 4, DP: 4}, hosts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(net, job, collective.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(1); err != nil {
		t.Fatal(err)
	}
	net.Eng.Run()
	if tr.Iterations != 1 || tr.FirstErr != nil {
		t.Fatalf("iterations = %d, first error %v", tr.Iterations, tr.FirstErr)
	}
	ppFlows := len(job.PPPairs()) * 8 * 2
	recomputes := reg.Counter("netsim_recomputes_total", "").Value()
	if recomputes >= uint64(ppFlows) {
		t.Fatalf("%v recomputes for an iteration that starts %d PP flows; the PP launch is not batched",
			recomputes, ppFlows)
	}
}

func TestInferenceLoad(t *testing.T) {
	fe, err := topo.BuildFrontend(topo.FrontendConfig{
		Segments: 1, HostsPerSegment: 8, StorageHosts: 0,
		AccessGbps: 200, FabricGbps: 400, AggsPerPod: 2, Cores: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(sim.New(), fe)
	load, err := NewInferenceLoad(net, DefaultInference(), []int{0, 1, 2, 3}, []int{4, 5, 6, 7}, 3)
	if err != nil {
		t.Fatal(err)
	}
	load.Run(2 * sim.Second)
	net.Eng.Run()
	// ~200 QPS for 2s => ~400 exchanges, Poisson-distributed.
	if load.Completed < 250 || load.Completed > 600 {
		t.Fatalf("completed = %d, want ~400", load.Completed)
	}
	// A 2MB response on an idle 200G port takes ~80us; P99 should stay
	// well under a millisecond on an unloaded frontend.
	if p99 := load.Latency.Percentile(99); p99 > 1e-3 {
		t.Fatalf("P99 latency = %v s, want sub-millisecond", p99)
	}
	if net.ActiveFlows() != 0 {
		t.Fatal("inference flows leaked")
	}
}

func TestInferenceLoadRejectsEmpty(t *testing.T) {
	fe, err := topo.BuildFrontend(topo.DefaultFrontend())
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(sim.New(), fe)
	if _, err := NewInferenceLoad(net, DefaultInference(), nil, []int{1}, 1); err == nil {
		t.Fatal("empty client set accepted")
	}
}

func TestInferenceLoadRejectsBadSpec(t *testing.T) {
	fe, err := topo.BuildFrontend(topo.DefaultFrontend())
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(sim.New(), fe)
	for _, tc := range []struct {
		name string
		edit func(*InferenceSpec)
	}{
		{"zero QPS", func(s *InferenceSpec) { s.QPS = 0 }},
		{"negative QPS", func(s *InferenceSpec) { s.QPS = -1 }},
		{"zero request", func(s *InferenceSpec) { s.RequestBytes = 0 }},
		{"NaN request", func(s *InferenceSpec) { s.RequestBytes = math.NaN() }},
		{"negative response", func(s *InferenceSpec) { s.ResponseBytes = -1 }},
	} {
		spec := DefaultInference()
		tc.edit(&spec)
		if _, err := NewInferenceLoad(net, spec, []int{0}, []int{1}, 1); err == nil {
			t.Errorf("%s: spec %+v accepted", tc.name, spec)
		}
	}
}

// A request that cannot launch (its server lies outside the simulator's
// pod shard) is recorded, not dropped.
func TestInferenceLoadKeepsLaunchError(t *testing.T) {
	cfg := topo.SmallHPN(1, 2, 2)
	cfg.Pods = 2
	top, err := topo.BuildHPN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := topo.ShardByPod(top)
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(sim.New(), top)
	net.RestrictShard(sh, 1)
	load, err := NewInferenceLoad(net, DefaultInference(), []int{0}, []int{len(top.Hosts) - 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	load.Run(10 * sim.Millisecond)
	net.Eng.Run()
	if load.FirstErr == nil {
		t.Fatal("cross-shard request launched without error")
	}
	if load.Completed != 0 {
		t.Fatalf("completed %d cross-shard exchanges", load.Completed)
	}
}
