package main

import (
	"fmt"
	"runtime"

	"hpn"
	"hpn/internal/failure"
	"hpn/internal/prof"
	"hpn/internal/sim"
	"hpn/internal/telemetry"
	"hpn/internal/topo"
)

// workload is one set of inputs the benchmark runs. Each is a scenario of
// the paper sized for a two-core host; why records what it stresses.
type workload struct {
	name string
	// procs is the GOMAXPROCS the measured reps run at (capped at the
	// host's CPU count).
	procs int
	// variant is the comparison the traced pass runs next to the measured
	// form; see procsFor and the ratio it yields in tracePass.
	variant string
	why     string
	run     func(r *rep) error
}

var workloads = []workload{
	{
		name: "contended", procs: 2, variant: "procs1", run: runContended,
		why: "fig15: one contention component spans the fabric, so the max-min allocator (and its parallel fill) takes nearly all run time",
	},
	{
		name: "multipod", procs: 2, variant: "serial", run: runMultipod,
		why: "section 7: tiny components, so event dispatch, collective launches and the sharded window barrier dominate; no observers attached",
	},
	{
		name: "longrun-memo", procs: 1, variant: "health-off", run: runLongrunMemo,
		why: "steady-state training: nearly every iteration is a memo replay, dominated by re-feeding recorded callbacks to the health observer",
	},
	{
		name: "faults-observed", procs: 1, variant: "obs-off", run: runFaultsObserved,
		why: "fig18: link failure and flapping under dual-ToR with every observer and artifact writer on; reroutes, stalls and emission",
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// procsFor returns the GOMAXPROCS a rep of w in the given variant runs at,
// capped at the host's CPU count: the parallel-fill and sharded
// comparisons run their serial side at 1.
func procsFor(w workload, variant string) int {
	if variant == "procs1" || variant == "serial" {
		return 1
	}
	return min(w.procs, runtime.NumCPU())
}

// sizing is what one rep simulates. fullSize is the benchmark's; tinySize
// keeps the smoke test to a few seconds.
type sizing struct {
	contendedIters int
	contendedPar   hpn.Parallelism
	multipodIters  int
	memoIters      int
	// memoPairIters sizes the memo-on versus memo-off check of the traced
	// pass.
	memoPairIters int
	// faultHosts is the host count of the faults-observed job, half in
	// each of two segments, eight data-parallel ranks per host.
	faultHosts               int
	horizon                  sim.Time
	failAt, repairAt, flapAt sim.Time
	flapCycles               int
	flapDown, flapUp         sim.Time
}

var fullSize = sizing{
	contendedIters: 1,
	contendedPar:   hpn.Parallelism{TP: 8, PP: 8, DP: 9},
	multipodIters:  500,
	memoIters:      4000,
	memoPairIters:  50,
	faultHosts:     4,
	horizon:        40 * sim.Second,
	failAt:         5 * sim.Second,
	repairAt:       20 * sim.Second,
	flapAt:         25 * sim.Second,
	flapCycles:     6,
	flapDown:       1500 * sim.Millisecond,
	flapUp:         500 * sim.Millisecond,
}

var tinySize = sizing{
	contendedIters: 2,
	contendedPar:   hpn.Parallelism{TP: 8, PP: 8, DP: 2},
	multipodIters:  2,
	memoIters:      20,
	memoPairIters:  10,
	faultHosts:     4,
	horizon:        15 * sim.Second,
	failAt:         3 * sim.Second,
	repairAt:       6 * sim.Second,
	flapAt:         8 * sim.Second,
	flapCycles:     3,
	flapDown:       1500 * sim.Millisecond,
	flapUp:         500 * sim.Millisecond,
}

// runContended trains the fig15 job, DCN+ then HPN, with no hub. DCN+
// keeps its default hash seed: it runs one hash function on every switch,
// so its seed decides whether flows polarize, and over seeds 1-16 its
// recomputes per iteration range from 1.4K to 3.4K. A workload whose cost
// moves 2.5x with the seed cannot resolve a 10-20% change, so only the
// HPN half, whose cost moves about 10%, takes the seed.
func runContended(r *rep) error {
	dcfg := hpn.SmallDCN(2)
	hcfg := hpn.SmallHPN(3, 32, 16)
	hcfg.Seed = r.cfg.Seed
	r.hub = r.newHub(nil)
	r.iters = r.size.contendedIters

	r.startSetup()
	dc, err := r.cluster(func() error { _, err := topo.BuildDCN(dcfg); return err },
		func() (*hpn.Cluster, error) { return hpn.NewDCN(dcfg) })
	if err != nil {
		return err
	}
	hc, err := r.cluster(func() error { _, err := topo.BuildHPN(hcfg); return err },
		func() (*hpn.Cluster, error) { return hpn.NewHPN(hcfg) })
	if err != nil {
		return err
	}
	clusters := []*hpn.Cluster{dc, hc}
	for _, c := range clusters {
		tr, err := r.trainer(c, hpn.GPT175B, r.size.contendedPar)
		if err != nil {
			return err
		}
		if err := tr.Start(r.iters); err != nil {
			return err
		}
	}
	for _, c := range clusters {
		r.run(c.Eng.Run)
	}
	return nil
}

// runMultipod trains one LLaMa-13B job per pod on the sharded engine.
func runMultipod(r *rep) error {
	cfg := hpn.MultiPodHPN(4, 1, 8, 4)
	cfg.Seed = r.cfg.Seed
	r.hub = r.newHub(nil)
	r.iters = r.size.multipodIters
	r.workers = 2
	if r.cfg.Variant == "serial" {
		r.workers = 1
	}

	r.startSetup()
	if err := r.topoSpan(func() error { _, err := topo.BuildHPN(cfg); return err }); err != nil {
		return err
	}
	var sc *hpn.ShardedCluster
	err := r.span("setup.cluster", func() error {
		var err error
		sc, err = hpn.NewShardedHPN(cfg, r.hub)
		return err
	})
	if err != nil {
		return err
	}
	sc.SetWorkers(r.workers)
	if r.cfg.Traced {
		// The pods report into a profiler of their own: their windows run
		// concurrently inside the coordinator's window_sync phase, and self
		// time needs the two apart.
		r.shardProf = prof.New()
		for _, pc := range sc.Pods {
			pc.Eng.SetProfiler(r.shardProf)
			pc.Net.AttachProfiler(r.shardProf, pc.Net.Flight)
		}
	}
	r.coord = sc.Coord
	for _, c := range append([]*hpn.Cluster{sc.Global}, sc.Pods...) {
		r.nets = append(r.nets, c.Net)
		r.engines = append(r.engines, c.Eng)
	}
	var st *hpn.ShardedTrainer
	err = r.span("setup.job", func() error {
		var err error
		st, err = hpn.NewShardedTrainer(sc, hpn.LLaMa13B, hpn.Parallelism{TP: 8, PP: 1, DP: 8})
		return err
	})
	if err != nil {
		return err
	}
	for _, tr := range st.Trainers {
		r.watch(tr)
	}
	if err := st.Start(r.iters); err != nil {
		return err
	}
	r.run(sc.Run)
	if st.FirstErr != nil {
		return fmt.Errorf("cross-pod sync: %w", st.FirstErr)
	}
	if st.Rounds != r.iters {
		return fmt.Errorf("%d cross-pod rounds for %d iterations", st.Rounds, r.iters)
	}
	return nil
}

// runLongrunMemo trains LLaMa-13B on one segment with the memo recorder
// and the health monitor attached, and writes the incident artifacts.
func runLongrunMemo(r *rep) error {
	cfg := hpn.SmallHPN(1, 8, 8)
	cfg.Seed = r.cfg.Seed
	opt := telemetry.Options{Memo: true, Health: true}
	iters := r.size.memoIters
	switch r.cfg.Variant {
	case "health-off":
		opt.Health = false
	case "memo50-on":
		iters = r.size.memoPairIters
	case "memo50-off":
		iters = r.size.memoPairIters
		opt.Memo = false
	}
	r.hub = r.newHub(&opt)
	r.iters = iters

	r.startSetup()
	c, err := r.cluster(func() error { _, err := topo.BuildHPN(cfg); return err },
		func() (*hpn.Cluster, error) { return hpn.NewHPN(cfg) })
	if err != nil {
		return err
	}
	tr, err := r.trainer(c, hpn.LLaMa13B, hpn.Parallelism{TP: 8, PP: 1, DP: 8})
	if err != nil {
		return err
	}
	if err := tr.Start(iters); err != nil {
		return err
	}
	r.run(c.Eng.Run)
	return r.writeArtifacts()
}

// runFaultsObserved trains LLaMa-7B on a dual-ToR fabric through a link
// failure and a flapping link, with every observer on, and writes every
// artifact.
func runFaultsObserved(r *rep) error {
	s := r.size
	cfg := hpn.SmallHPN(2, s.faultHosts/2, 8)
	cfg.Seed = r.cfg.Seed
	var opt *telemetry.Options
	if r.cfg.Variant != "obs-off" {
		o := telemetry.DefaultOptions()
		o.Inband = true
		o.Health = true
		// hpnbench's caps: bounded, but far above what this run emits.
		o.MaxTraceEvents = 2_000_000
		o.InbandMax = 2_000_000
		opt = &o
	}
	r.hub = r.newHub(opt)

	r.startSetup()
	c, err := r.cluster(func() error { _, err := topo.BuildHPN(cfg); return err },
		func() (*hpn.Cluster, error) { return hpn.NewHPN(cfg) })
	if err != nil {
		return err
	}
	tr, err := r.trainer(c, hpn.LLaMa7B, hpn.Parallelism{TP: 1, PP: 1, DP: 8 * s.faultHosts})
	if err != nil {
		return err
	}
	placed := tr.Job.Hosts
	in := &failure.Injector{Net: c.Net}
	down := c.Topo.AccessLink(placed[0], 0, 0)
	in.FailLinkAt(s.failAt, down)
	in.RecoverLinkAt(s.repairAt, down)
	in.FlapLinkAt(s.flapAt, c.Topo.AccessLink(placed[1], 1, 1), s.flapDown, s.flapUp, s.flapCycles)
	wd := failure.NewWatchdog(c.Net)
	wd.Watch(s.horizon)
	if err := tr.Start(1 << 20); err != nil {
		return err
	}
	r.run(func() { c.Eng.RunUntil(s.horizon) })
	if crashed, at := wd.Crashed(); crashed {
		return fmt.Errorf("watchdog declared the job crashed at %v", at)
	}
	if r.hub == nil {
		return nil
	}
	return r.writeArtifacts()
}
