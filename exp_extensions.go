package hpn

import (
	"fmt"
	"sort"

	"hpn/internal/core"
	"hpn/internal/hashing"
	"hpn/internal/netsim"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/topo"
	"hpn/internal/workload"
)

func init() {
	register("sec7", "Cross-pod PP over the 15:1 Core tier + per-port hashing", runSec7)
	register("sec8", "Frontend/backend decoupling and the storage-cluster location", runSec8)
}

// runSec7 exercises the tier3 design of §7: a job spanning two pods with
// only pipeline-parallel traffic crossing the Core layer, and the
// per-(ingress-port, dst-pod) Core hash that removes tier3 polarization.
func runSec7(env Env) (*Report, error) {
	r := &Report{ID: "sec7", Title: "Supporting larger scale: PP across pods (§7)"}
	cross, ref := sec7Scenarios(env.Scale)
	hostsPerPod := cross.Hosts / 2
	crossFabric, err := cross.buildFabric(env.Hub)
	if err != nil {
		return nil, err
	}
	crossRun, err := train(crossFabric, false)
	if err != nil {
		return nil, err
	}
	coreGB := crossFabric.Cluster.Net.CoreBits.Float() / 8e9
	totalGB := crossFabric.Cluster.Net.CompletedBits.Float() / 8e9
	refFabric, err := ref.buildFabric(env.Hub)
	if err != nil {
		return nil, err
	}
	refRun, err := train(refFabric, false)
	if err != nil {
		return nil, err
	}

	slowdown := 1 - crossRun.samplesPerSec/refRun.samplesPerSec
	r.AddTable(Table{
		Title:  fmt.Sprintf("GPT-175B-variant, TP=8 PP=2 DP=%d (%d GPUs)", hostsPerPod, cross.Parallelism().GPUs()),
		Header: []string{"placement", "samples/s", "Core-crossing traffic (GB)"},
		Rows: [][]string{
			{"PP across 2 pods (15:1 core)", fmtF(crossRun.samplesPerSec), fmtF(coreGB)},
			{"single pod", fmtF(refRun.samplesPerSec), "0"},
		},
	})
	r.AddClaim("only PP traffic crosses the Core tier", "PP only (DP/TP stay in-pod)",
		pct(coreGB/totalGB)+" of all bytes", coreGB > 0 && coreGB/totalGB < 0.05)
	r.AddClaim("cross-pod PP minimally impacts end-to-end training", "minimal",
		pct(slowdown)+" slowdown", slowdown < 0.03 && slowdown > -0.03)

	// Per-port hashing ablation: walk many cross-pod flows through a
	// legacy-hashed (shared-seed) fabric. A polarized 5-tuple hash at the
	// Core can pile several ingress links' load onto one egress link
	// (amplifying upstream imbalance); the engineered per-port rotation is
	// injective per pod and can never amplify. We therefore compare the
	// egress-vs-ingress imbalance amplification of both schemes.
	amp := func(perPort bool) (inImb, outImb float64) {
		cfg := *cross.HPN
		cfg.SharedHashSeed = true
		c, err2 := env.join(NewHPN(cfg))
		if err2 != nil {
			return -1, -1
		}
		if !perPort {
			for _, n := range c.Topo.Nodes {
				n.PerPortHash = false
			}
		}
		ingress := map[topo.LinkID]int{}
		egress := map[topo.LinkID]int{}
		for i := 0; i < 400; i++ {
			src := route.Endpoint{Host: i % hostsPerPod, NIC: i % 8}
			dst := route.Endpoint{Host: hostsPerPod + (i+3)%hostsPerPod, NIC: i % 8}
			tuple := hashing.FiveTuple{SrcAddr: src.Addr(), DstAddr: dst.Addr(),
				SrcPort: uint16(20000 + i), DstPort: 4791, Proto: 17}
			p, bh, err3 := c.Net.R.Path(src, dst, i%2, tuple, 0)
			if err3 != nil || bh {
				continue
			}
			// Cross-pod path: ... agg -(p[2])-> core -(p[3])-> agg ...
			ingress[p[2]]++
			egress[p[3]]++
		}
		toImb := func(m map[topo.LinkID]int) float64 {
			var vals []int
			for _, v := range m {
				vals = append(vals, v)
			}
			sort.Ints(vals)
			return hashing.Imbalance(vals)
		}
		return toImb(ingress), toImb(egress)
	}
	ppIn, ppOut := amp(true)
	ftIn, ftOut := amp(false)
	r.AddTable(Table{
		Title:  "Core-tier imbalance under a legacy shared-seed fabric (max/mean flows per link)",
		Header: []string{"core hashing", "ingress imbalance", "egress imbalance", "amplification"},
		Rows: [][]string{
			{"per-(ingress-port, dst-pod) (§7)", fmtF(ppIn), fmtF(ppOut), fmtF(ppOut / ppIn)},
			{"5-tuple (cascaded, polarized)", fmtF(ftIn), fmtF(ftOut), fmtF(ftOut / ftIn)},
		},
	})
	r.AddClaim("per-port hash never amplifies upstream imbalance", "amplification ~1.0",
		fmt.Sprintf("%.2fx", ppOut/ppIn), ppOut/ppIn < 1.05)
	r.AddClaim("cascaded 5-tuple hashing amplifies (polarization)", ">1x",
		fmt.Sprintf("%.2fx", ftOut/ftIn), ftOut/ftIn > ppOut/ppIn)
	return r, nil
}

// sec7Scenarios returns sec7's two runs of one TP=8 PP=2 job: PP across
// the two pods of a 15:1 Core fabric, and a single-pod reference on two
// segments. Both fabrics number PP stage 0's hosts (pod or segment 0)
// before stage 1's, so one interleave places the stages on both: stage 0
// in pod 0 and stage 1 in pod 1 (the worker scheduler's job), with DP
// rings never leaving their pod.
func sec7Scenarios(s Scale) (cross, ref Scenario) {
	hostsPerPod := 8
	if s == ScaleFull {
		hostsPerPod = 16
	}
	var placement []int
	for i := 0; i < hostsPerPod; i++ {
		placement = append(placement, i, hostsPerPod+i)
	}
	crossCfg := MultiPodHPN(2, 1, hostsPerPod, 8)
	crossCfg.AggCoreUplinks = 2
	refCfg := SmallHPN(2, hostsPerPod, 8)
	job := Scenario{Model: GPT175B, TP: 8, PP: 2, Hosts: 2 * hostsPerPod, Iterations: 3, Placement: placement}
	cross, ref = job, job
	cross.HPN, ref.HPN = &crossCfg, &refCfg
	return cross, ref
}

// runSec8 reproduces the frontend-network arguments of §8 and §10: the
// storage cluster lives in the 1:1 frontend so checkpoint bursts never
// perturb training; putting the same traffic in the backend does.
func runSec8(env Env) (*Report, error) {
	r := &Report{ID: "sec8", Title: "Independent frontend network and storage placement"}
	trainHosts := 8
	ckptGBPerHost := 60.0
	if env.Scale == ScaleFull {
		trainHosts = 16
		ckptGBPerHost = 240 // the paper's 30GB per GPU
	}

	// Baseline: training alone on the backend.
	base, err := trainWithStorage(env, trainHosts, 0, false)
	if err != nil {
		return nil, err
	}
	// Storage in the backend: checkpoint flows share the training fabric.
	shared, err := trainWithStorage(env, trainHosts, ckptGBPerHost, false)
	if err != nil {
		return nil, err
	}
	// Storage in the frontend: checkpoint flows ride the separate 1:1
	// frontend network.
	isolated, err := trainWithStorage(env, trainHosts, ckptGBPerHost, true)
	if err != nil {
		return nil, err
	}

	degShared := 1 - shared.samples/base.samples
	degIsolated := 1 - isolated.samples/base.samples
	r.AddTable(Table{
		Title:  fmt.Sprintf("LLaMa-13B on %d GPUs while saving %vGB/host checkpoints", trainHosts*8, ckptGBPerHost),
		Header: []string{"storage cluster location", "samples/s", "training degradation", "checkpoint time (s)"},
		Rows: [][]string{
			{"(no checkpoint)", fmtF(base.samples), "-", "-"},
			{"backend network", fmtF(shared.samples), pct(degShared), fmtF(shared.ckptSeconds)},
			{"frontend network (§8)", fmtF(isolated.samples), pct(degIsolated), fmtF(isolated.ckptSeconds)},
		},
	})
	r.AddClaim("storage traffic in the backend perturbs training",
		"fluctuations in training performance", pct(degShared), degShared > 0.02)
	r.AddClaim("frontend placement fully isolates training",
		"no impact", pct(degIsolated), degIsolated < 0.005 && degIsolated > -0.005)
	// Ideal: one 200G frontend port per host moves ckptGB in ckptGB*8/200
	// seconds; allow a small factor for ECMP collisions at full fan-in.
	idealCkpt := ckptGBPerHost * 8 / 200
	r.AddClaim("the 1:1 frontend absorbs the checkpoint burst",
		"completes within a small factor of line rate", fmtF(isolated.ckptSeconds)+"s",
		isolated.ckptSeconds > 0 && isolated.ckptSeconds < 2.5*idealCkpt)

	// §8's mixed deployment: inference request/response traffic shares the
	// frontend with checkpoint bursts and still sees low latencies.
	feCfg := topo.DefaultFrontend()
	feCfg.Segments = 2
	feCfg.HostsPerSegment = trainHosts
	feCfg.StorageHosts = trainHosts
	fe, err := env.join(core.NewFrontend(feCfg))
	if err != nil {
		return nil, err
	}
	if err := startBurst(fe.Net, trainHosts, func(i int) (route.Endpoint, route.Endpoint) {
		return route.Endpoint{Host: i, NIC: 0}, route.Endpoint{Host: feCfg.StorageHostStart() + i, NIC: 0}
	}, ckptGBPerHost*1e9, nil); err != nil {
		return nil, err
	}
	var clients, servers []int
	for i := 0; i < trainHosts; i++ {
		clients = append(clients, i)
		servers = append(servers, trainHosts+i)
	}
	inf, err := workload.NewInferenceLoad(fe.Net, workload.DefaultInference(), clients, servers, 5)
	if err != nil {
		return nil, err
	}
	inf.Run(2 * sim.Second)
	fe.Eng.Run()
	if inf.FirstErr != nil {
		return nil, inf.FirstErr
	}
	p99 := inf.Latency.Percentile(99)
	r.AddTable(Table{
		Title:  "inference co-running with checkpoint bursts on the frontend",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"exchanges completed", fmtF(float64(inf.Completed))},
			{"P99 request+response latency (ms)", fmtF(p99 * 1e3)},
		},
	})
	r.AddClaim("frontend supports mixed training/inference deployment",
		"good performance for inference", fmt.Sprintf("P99 %.2fms", p99*1e3),
		inf.Completed > 0 && p99 < 0.05)
	return r, nil
}

// startBurst starts n flows of the given size at the current instant, in
// one batch; ends(i) names flow i's endpoints. done, when non-nil, fires
// as the last of them completes. It stops at the first launch error.
func startBurst(net *netsim.Sim, n int, ends func(i int) (src, dst route.Endpoint), bytes float64, done func(sim.Time)) error {
	pending := 0
	var onComplete func(sim.Time, *netsim.Flow)
	if done != nil {
		onComplete = func(now sim.Time, _ *netsim.Flow) {
			pending--
			if pending == 0 {
				done(now)
			}
		}
	}
	var err error
	net.Batch(func() {
		for i := 0; i < n && err == nil; i++ {
			src, dst := ends(i)
			pending++
			_, err = net.StartFlow(src, dst, bytes, netsim.FlowOpts{SrcPort: -1, OnComplete: onComplete})
		}
	})
	return err
}

type storageRun struct {
	samples     float64
	ckptSeconds float64
}

// trainWithStorage trains on a 2-segment backend; checkpoint flows go to
// "storage hosts" either in the backend's second segment or across a
// dedicated frontend build.
func trainWithStorage(env Env, trainHosts int, ckptGBPerHost float64, frontend bool) (*storageRun, error) {
	cfg := SmallHPN(2, trainHosts, 8)
	run, err := Scenario{HPN: &cfg, Model: LLaMa13B, TP: 8, PP: 1, Hosts: trainHosts, Iterations: 4}.build(env.Hub)
	if err != nil {
		return nil, err
	}
	// The job fills segment 0; the storage hosts are segment 1's, numbered
	// after it.
	c, training := run.Cluster, run.Trainer.Job.Hosts

	out := &storageRun{}
	ckptBytes := ckptGBPerHost * 1e9
	if ckptGBPerHost > 0 && frontend {
		// A separate frontend fabric carries the same checkpoint volume:
		// one 2x200G frontend NIC per host toward the storage segment.
		feCfg := topo.DefaultFrontend()
		feCfg.Segments = 2
		feCfg.HostsPerSegment = trainHosts
		feCfg.StorageHosts = trainHosts
		feCluster, err := env.join(core.NewFrontend(feCfg))
		if err != nil {
			return nil, err
		}
		start := feCluster.Eng.Now()
		if err := startBurst(feCluster.Net, trainHosts, func(i int) (route.Endpoint, route.Endpoint) {
			return route.Endpoint{Host: i, NIC: 0}, route.Endpoint{Host: feCfg.StorageHostStart() + i%trainHosts, NIC: 0}
		}, ckptBytes, func(now sim.Time) { out.ckptSeconds = (now - start).Seconds() }); err != nil {
			return nil, err
		}
		feCluster.Eng.Run()
	}
	if ckptGBPerHost > 0 && !frontend {
		start := c.Eng.Now()
		if err := startBurst(c.Net, len(training), func(i int) (route.Endpoint, route.Endpoint) {
			return route.Endpoint{Host: training[i], NIC: i % 8}, route.Endpoint{Host: trainHosts + i%trainHosts, NIC: i % 8}
		}, ckptBytes, func(now sim.Time) { out.ckptSeconds = (now - start).Seconds() }); err != nil {
			return nil, err
		}
	}

	if err := run.Run(); err != nil {
		return nil, err
	}
	out.samples = run.Trainer.MeanSamplesPerSecond()
	return out, nil
}
