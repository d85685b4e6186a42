// Command hpnsim runs a training job on a simulated fabric and prints the
// per-iteration timeline: the general driver behind the paper's Figure 15
// and 16 style end-to-end comparisons.
//
// Usage:
//
//	hpnsim -arch hpn  -model llama-13b -hosts 16 -iters 5
//	hpnsim -arch dcn  -model gpt-175b  -hosts 72 -tp 8 -pp 8 -iters 3
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"hpn"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole command, returning the exit status instead of exiting
// so the deferred CPU-profile flush runs on every path: 0 on success, 1 on
// a run or write error, 2 on a usage error.
func run(args []string) (code int) {
	fs := flag.NewFlagSet("hpnsim", flag.ContinueOnError)
	var (
		arch     = fs.String("arch", "hpn", "hpn | dcn")
		model    = fs.String("model", "llama-13b", "llama-7b | llama-13b | gpt-175b")
		hosts    = fs.Int("hosts", 16, "hosts (8 GPUs each)")
		tp       = fs.Int("tp", 8, "tensor parallelism")
		pp       = fs.Int("pp", 1, "pipeline parallelism")
		iters    = fs.Int("iters", 5, "iterations to simulate")
		traceOut = fs.String("trace", "", "write a Chrome trace-event JSON (chrome://tracing, Perfetto) to this file")
		promOut  = fs.String("metrics", "", "write Prometheus-text metrics to this file")
		inbandTo = fs.String("inband", "", "enable in-band path telemetry and write run artifacts (per-hop inband.tsv/json, flow log, samples) into this directory")
		healthTo = fs.String("health", "", "enable online fabric health monitoring and write run artifacts (incidents.tsv/json causal timeline; render with hpndoctor) into this directory")
		useMemo  = fs.String("memo", "off", "iteration memoization: on | off (fast-forward repeated steady-state iterations; disables periodic sampling; composes with -pods/-shards)")
		pods     = fs.Int("pods", 1, "pods: >1 simulates each pod on its own engine shard under the conservative-window coordinator (-arch hpn only); every pod runs its own -hosts job plus a cross-pod gradient exchange")
		shards   = fs.Int("shards", 1, "worker goroutines executing parallel shard windows (0 = NumCPU); needs -pods > 1; results are identical for every value")
		profTo   = fs.String("prof", "", "enable engine self-profiling and write run artifacts (prof.tsv/json phase breakdown — render with hpnprof — and the flight.tsv incident event ring) into this directory")
		cpuOut   = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memOut   = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *cpuOut != "" {
		stop, err := startCPUProfile(*cpuOut)
		if err != nil {
			return fail(err)
		}
		defer func() {
			if err := stop(); err != nil {
				code = max(code, fail(err))
			}
		}()
	}

	memoOn := false
	switch *useMemo {
	case "on":
		memoOn = true
	case "off":
	default:
		fmt.Fprintf(os.Stderr, "hpnsim: -memo must be on or off, got %q\n", *useMemo)
		return 2
	}

	var hub *hpn.TelemetryHub
	if *traceOut != "" || *promOut != "" || *inbandTo != "" || *healthTo != "" || *profTo != "" || memoOn {
		opt := hpn.DefaultTelemetryOptions()
		opt.Trace = *traceOut != ""
		opt.Inband = *inbandTo != ""
		opt.Health = *healthTo != ""
		opt.Memo = memoOn
		opt.Prof = *profTo != ""
		hub = hpn.EnableDefaultTelemetry(opt)
		if memoOn {
			fmt.Println("memo: periodic sampling disabled (incompatible with fast-forward)")
		}
	}

	var m hpn.ModelSpec
	switch strings.ToLower(*model) {
	case "llama-7b":
		m = hpn.LLaMa7B
	case "llama-13b":
		m = hpn.LLaMa13B
	case "gpt-175b":
		m = hpn.GPT175B
	default:
		fmt.Fprintf(os.Stderr, "hpnsim: unknown model %q\n", *model)
		return 2
	}

	gpus := *hosts * 8
	if gpus%(*tp**pp) != 0 {
		fmt.Fprintf(os.Stderr, "hpnsim: %d GPUs not divisible by tp*pp=%d\n", gpus, *tp**pp)
		return 2
	}
	par := hpn.Parallelism{TP: *tp, PP: *pp, DP: gpus / (*tp * *pp)}
	out := outputs{trace: *traceOut, prom: *promOut, mem: *memOut, dirs: artifactDirs(*inbandTo, *healthTo, *profTo)}

	if *shards != 1 && *pods <= 1 {
		fmt.Fprintln(os.Stderr, "hpnsim: -shards needs -pods > 1 (a single-pod fabric has nothing to shard)")
		return 2
	}
	if *pods > 1 {
		if *arch != "hpn" {
			fmt.Fprintf(os.Stderr, "hpnsim: sharded multi-pod runs support -arch hpn only, got %q\n", *arch)
			return 2
		}
		if err := runSharded(hub, m, par, *pods, *shards, *hosts, *iters, out, *inbandTo != ""); err != nil {
			return fail(err)
		}
		return 0
	}

	var (
		c   *hpn.Cluster
		err error
	)
	switch *arch {
	case "hpn":
		segHosts := *hosts
		if segHosts > 128 {
			segHosts = 128
		}
		segments := (*hosts + segHosts - 1) / segHosts
		c, err = hpn.NewHPN(hpn.SmallHPN(segments, segHosts, 16))
	case "dcn":
		c, err = hpn.NewDCN(hpn.SmallDCN((*hosts + 63) / 64))
	default:
		fmt.Fprintf(os.Stderr, "hpnsim: unknown arch %q\n", *arch)
		return 2
	}
	if err != nil {
		return fail(err)
	}
	if *inbandTo != "" {
		// The per-hop stream is exported alongside the completed-flow log.
		c.Net.EnableFlowLog(0)
	}

	placed, err := c.PlaceJob(*hosts)
	if err != nil {
		return fail(err)
	}
	job, err := hpn.NewJob(m, par, placed)
	if err != nil {
		return fail(err)
	}
	tr, err := hpn.NewTrainer(c, job)
	if err != nil {
		return fail(err)
	}

	fmt.Printf("%s on %s: %d GPUs (TP=%d PP=%d DP=%d), %d segments\n",
		m.Name, c.Arch, par.GPUs(), par.TP, par.PP, par.DP, c.SegmentsSpanned(placed))
	if err := tr.Start(*iters); err != nil {
		return fail(err)
	}
	c.Eng.Run()

	fmt.Printf("%-5s  %-12s  %-12s\n", "iter", "samples/s", "sync (s)")
	for i, p := range tr.Perf.Points {
		fmt.Printf("%-5d  %-12.1f  %-12.4f\n", i+1, p.V, tr.CommSeconds.Points[i].V)
	}
	fmt.Printf("mean samples/s: %.1f\n", tr.MeanSamplesPerSecond())

	if m := hpn.HealthMonitorOf(c); m != nil {
		fmt.Printf("health: %s\n", m.Summary().Verdict())
	}
	printMemo("memo", c, tr.Iterations)
	if tr.FirstErr != nil {
		fmt.Fprintf(os.Stderr, "hpnsim: warning: sync-phase launch error (first recorded; count in workload_sync_errors_total): %v\n", tr.FirstErr)
	}
	for _, w := range hpn.OverflowWarnings(hub) {
		fmt.Fprintln(os.Stderr, "hpnsim:", w)
	}

	if err := out.write(hub, hub.WriteArtifacts); err != nil {
		return fail(err)
	}
	return 0
}

// runSharded is the -pods > 1 path: one engine shard per pod under the
// conservative-window coordinator, one training job per pod, and the
// cross-pod gradient exchange on the global domain.
func runSharded(hub *hpn.TelemetryHub, m hpn.ModelSpec, par hpn.Parallelism,
	pods, workers, hosts, iters int, out outputs, flowLog bool) error {
	segHosts := hosts
	if segHosts > 128 {
		segHosts = 128
	}
	segments := (hosts + segHosts - 1) / segHosts
	sc, err := hpn.NewShardedHPN(hpn.MultiPodHPN(pods, segments, segHosts, 16), hub)
	if err != nil {
		return err
	}
	sc.SetWorkers(workers)
	if flowLog {
		sc.Global.Net.EnableFlowLog(0)
		for _, pc := range sc.Pods {
			pc.Net.EnableFlowLog(0)
		}
	}
	st, err := hpn.NewShardedTrainer(sc, m, par)
	if err != nil {
		return err
	}
	fmt.Printf("%s on %s: %d pods x %d GPUs (TP=%d PP=%d DP=%d), %d shard workers\n",
		m.Name, sc.Arch, pods, par.GPUs(), par.TP, par.PP, par.DP, sc.Coord.Workers())
	if err := st.Start(iters); err != nil {
		return err
	}
	sc.Run()

	fmt.Printf("%-5s  %-12s  %-12s\n", "pod", "samples/s", "iterations")
	for p, tr := range st.Trainers {
		fmt.Printf("%-5d  %-12.1f  %-12d\n", p, tr.MeanSamplesPerSecond(), tr.Iterations)
	}
	fmt.Printf("cross-pod rounds: %d (%.4fs total), windows: %d, cross-domain posts: %d\n",
		st.Rounds, st.CrossSeconds, sc.Coord.Windows, sc.Coord.Exchanged)
	for p, pc := range sc.Pods {
		if hm := hpn.HealthMonitorOf(pc); hm != nil {
			fmt.Printf("pod %d health: %s\n", p, hm.Summary().Verdict())
		}
		printMemo(fmt.Sprintf("pod %d memo", p), pc, st.Trainers[p].Iterations)
		if st.Trainers[p].FirstErr != nil {
			fmt.Fprintf(os.Stderr, "hpnsim: warning: pod %d sync-phase launch error: %v\n", p, st.Trainers[p].FirstErr)
		}
	}
	if st.FirstErr != nil {
		fmt.Fprintf(os.Stderr, "hpnsim: warning: cross-pod sync launch error: %v\n", st.FirstErr)
	}
	for _, w := range hpn.OverflowWarnings(hub) {
		fmt.Fprintln(os.Stderr, "hpnsim:", w)
	}

	// The flat trace file carries the global domain's process; the per-pod
	// traces land as c2_trace.json, ... in the artifact dirs.
	return out.write(hub, sc.WriteArtifacts)
}

// printMemo prints one cluster's memo recorder summary, if it has one.
func printMemo(label string, c *hpn.Cluster, iters int) {
	r := hpn.MemoRecorderOf(c)
	if r == nil {
		return
	}
	s := r.Stats()
	fmt.Printf("%s: %d hits, %d misses, %d blocked, %d invalidations, %d/%d iterations replayed\n",
		label, s.Hits, s.Misses, s.Blocked, s.Invalidations, s.Replayed, iters)
}

// outputs is where a run writes its results: the flat trace and metrics
// files, the artifact directories and the heap profile (each empty or nil
// when not requested).
type outputs struct {
	trace, prom, mem string
	dirs             []string
}

// write writes every requested output. writeArtifacts fills one artifact
// directory: the hub's for a single pod, the sharded cluster's for
// several.
func (o outputs) write(hub *hpn.TelemetryHub, writeArtifacts func(dir string) ([]string, error)) error {
	if hub != nil {
		if o.trace != "" {
			if err := writeFile(o.trace, func(f *os.File) error {
				_, err := hub.Tracer.WriteTo(f)
				return err
			}); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d events)\n", o.trace, hub.Tracer.Events())
		}
		if o.prom != "" {
			if err := writeFile(o.prom, func(f *os.File) error {
				return hub.Registry.WritePrometheus(f)
			}); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", o.prom)
		}
		for _, dir := range o.dirs {
			paths, err := writeArtifacts(dir)
			if err != nil {
				return err
			}
			for _, p := range paths {
				fmt.Printf("wrote %s\n", p)
			}
		}
	}
	if o.mem != "" {
		if err := writeFile(o.mem, func(f *os.File) error {
			return pprof.Lookup("allocs").WriteTo(f, 0)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.mem)
	}
	return nil
}

// artifactDirs deduplicates the artifact output directories (both -inband
// and -health dump the full registry artifact set).
func artifactDirs(dirs ...string) []string {
	var out []string
	for _, d := range dirs {
		if d == "" {
			continue
		}
		dup := false
		for _, seen := range out {
			if seen == d {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, d)
		}
	}
	return out
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startCPUProfile starts a pprof CPU profile into path. The returned stop
// flushes the profile and closes the file, returning the close error.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// fail reports err and returns the run-error exit status.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "hpnsim:", err)
	return 1
}
