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
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"hpn"
	"hpn/cmd/internal/observe"
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
		arch   = fs.String("arch", "hpn", "hpn | dcn")
		model  = fs.String("model", "llama-13b", "llama-7b | llama-13b | gpt-175b")
		hosts  = fs.Int("hosts", 16, "hosts (8 GPUs each)")
		tp     = fs.Int("tp", 8, "tensor parallelism")
		pp     = fs.Int("pp", 1, "pipeline parallelism")
		iters  = fs.Int("iters", 5, "iterations to simulate")
		pods   = fs.Int("pods", 1, "pods: >1 simulates each pod on its own engine shard under the conservative-window coordinator (-arch hpn only); every pod runs its own -hosts job plus a cross-pod gradient exchange")
		shards = fs.Int("shards", 1, "worker goroutines executing parallel shard windows (0 = NumCPU); needs -pods > 1; results are identical for every value")
		obs    = observe.Register(fs)
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "hpnsim: unexpected argument %q (every option is a flag)\n", fs.Arg(0))
		return 2
	}

	stop, err := obs.Start()
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stop(); err != nil {
			code = max(code, fail(err))
		}
	}()

	tel, err := obs.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpnsim:", err)
		return 2
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

	// -shards 0 selects NumCPU workers (the Scenario's rule); the in-band
	// stream is exported alongside the completed-flow log.
	s := hpn.Scenario{Model: m, TP: *tp, PP: *pp, Hosts: *hosts, Iterations: *iters,
		Workers: *shards, FlowLog: obs.Inband != "", Telemetry: tel}
	switch {
	case *pods < 1:
		fmt.Fprintf(os.Stderr, "hpnsim: -pods must be >= 1, got %d\n", *pods)
		return 2
	case *shards < 0:
		fmt.Fprintf(os.Stderr, "hpnsim: -shards must be >= 0, got %d\n", *shards)
		return 2
	case *shards != 1 && *pods <= 1:
		fmt.Fprintln(os.Stderr, "hpnsim: -shards needs -pods > 1 (a single-pod fabric has nothing to shard)")
		return 2
	case *arch == "hpn":
		// Segments of at most 128 hosts; -pods > 1 runs one engine shard per
		// pod under the conservative-window coordinator.
		cfg := hpn.MultiPodHPN(*pods, (*hosts+127)/128, min(*hosts, 128), 16)
		s.HPN = &cfg
	case *pods > 1:
		fmt.Fprintf(os.Stderr, "hpnsim: sharded multi-pod runs support -arch hpn only, got %q\n", *arch)
		return 2
	case *arch == "dcn":
		cfg := hpn.SmallDCN((*hosts + 63) / 64)
		s.DCN = &cfg
	default:
		fmt.Fprintf(os.Stderr, "hpnsim: unknown arch %q\n", *arch)
		return 2
	}
	if err := s.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "hpnsim:", err)
		return 2
	}
	return execute(s, obs)
}

// execute builds and runs a validated scenario, prints its results and
// writes the outputs obs asks for, returning the exit status. A run that
// stalls still prints what it simulated and writes every output, since
// those are what explain the stall, and then exits 1.
func execute(s hpn.Scenario, obs *observe.Flags) int {
	r, err := s.Build()
	if err != nil {
		return fail(err)
	}
	par := s.Parallelism()
	if sc := r.Sharded; sc != nil {
		fmt.Printf("%s on %s: %d pods x %d GPUs (TP=%d PP=%d DP=%d), %d shard workers\n",
			s.Model.Name, sc.Arch, len(sc.Pods), par.GPUs(), par.TP, par.PP, par.DP, sc.Coord.Workers())
	} else {
		fmt.Printf("%s on %s: %d GPUs (TP=%d PP=%d DP=%d), %d segments\n",
			s.Model.Name, r.Cluster.Arch, par.GPUs(), par.TP, par.PP, par.DP, r.Cluster.SegmentsSpanned(r.Trainer.Job.Hosts))
	}
	runErr := r.Run()
	if runErr != nil && !errors.Is(runErr, hpn.ErrStalled) {
		return fail(runErr)
	}
	if r.Sharded != nil {
		printSharded(r)
	} else {
		printSingle(r)
	}
	// On a sharded run the flat trace file carries the global domain's
	// process; the per-pod traces land as c2_trace.json, ... in the
	// artifact dirs.
	ok := obs.Write(r.Hub)
	if runErr != nil {
		return fail(runErr)
	}
	if !ok {
		return 1
	}
	return 0
}

// printSingle prints a single-engine run's per-iteration timeline.
func printSingle(r *hpn.ScenarioRun) {
	tr := r.Trainer
	fmt.Printf("%-5s  %-12s  %-12s\n", "iter", "samples/s", "sync (s)")
	for i, p := range tr.Perf.Points {
		fmt.Printf("%-5d  %-12.1f  %-12.4f\n", i+1, p.V, tr.CommSeconds.Points[i].V)
	}
	fmt.Printf("mean samples/s: %.1f\n", tr.MeanSamplesPerSecond())
	if hm := hpn.HealthMonitorOf(r.Cluster); hm != nil {
		fmt.Printf("health: %s\n", hm.Summary().Verdict())
	}
	printMemo("memo", r.Cluster, tr.Iterations)
	if tr.FirstErr != nil {
		fmt.Fprintf(os.Stderr, "hpnsim: warning: sync-phase launch error (first recorded; count in workload_sync_errors_total): %v\n", tr.FirstErr)
	}
}

// printSharded prints a sharded run's per-pod results: one training job
// per pod plus the cross-pod gradient exchange on the global domain.
func printSharded(r *hpn.ScenarioRun) {
	sc, st := r.Sharded, r.ShardedTrainer
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
}

// printMemo prints one cluster's memo recorder summary, if it has one.
func printMemo(label string, c *hpn.Cluster, iters int) {
	r := hpn.MemoRecorderOf(c)
	if r == nil {
		return
	}
	s := r.Stats()
	fmt.Printf("%s: %d hits, %d misses, %d blocked, %d invalidations, %d/%d iterations replayed, %d halves folded, %d re-delivered\n",
		label, s.Hits, s.Misses, s.Blocked, s.Invalidations, s.Replayed, iters, s.Folded, s.Redelivered)
}

// fail reports err and returns the run-error exit status.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "hpnsim:", err)
	return 1
}
