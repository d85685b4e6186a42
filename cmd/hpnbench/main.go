// Command hpnbench regenerates the tables and figures of "Alibaba HPN: A
// Data Center Network for Large Language Model Training" (SIGCOMM 2024)
// from the hpnsim reproduction.
//
// Usage:
//
//	hpnbench -list                 # enumerate experiments
//	hpnbench -exp fig15            # run one experiment (quick scale)
//	hpnbench -exp all -scale full  # run everything at paper scale
//
// Each experiment prints the rows/series the paper reports plus a
// paper-vs-measured claim table; the exit status is non-zero if any claim
// fails to hold. Performance is measured by the perfbench module, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"hpn"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole command, returning the exit status instead of exiting
// so the deferred CPU-profile flush runs on every path: 0 when every claim
// holds, 1 on a failing claim or a write error, 2 on a usage error.
func run(args []string) (code int) {
	fs := flag.NewFlagSet("hpnbench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment ID (see -list) or 'all'")
		scale    = fs.String("scale", "quick", "quick | full")
		list     = fs.Bool("list", false, "list experiments and exit")
		csvDir   = fs.String("csv", "", "also dump recorded time series as CSV into this directory")
		traceOut = fs.String("trace", "", "write a Chrome trace-event JSON covering every cluster built (one trace process each)")
		promOut  = fs.String("metrics", "", "write Prometheus-text metrics to this file")
		inbandTo = fs.String("inband", "", "enable in-band path telemetry on every cluster; write the per-hop inband.tsv/json (and other registry artifacts) into this directory after the sweep")
		healthTo = fs.String("health", "", "enable online fabric health monitoring on every cluster; write the incidents.tsv/json causal timelines (render with hpndoctor) into this directory after the sweep")
		useMemo  = fs.String("memo", "off", "iteration memoization on every cluster: on | off (fast-forward repeated steady-state iterations; disables periodic sampling; composes with -shards)")
		shards   = fs.Int("shards", 1, "worker goroutines for sharded experiments' parallel windows (0 = NumCPU); results are identical for every value, only wall-clock changes")
		profTo   = fs.String("prof", "", "enable engine self-profiling on every cluster; write prof.tsv/json (render with hpnprof) and flight.tsv into this directory after the sweep")
		cpuOut   = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole sweep to this file")
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
			fmt.Fprintf(os.Stderr, "hpnbench: cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintf(os.Stderr, "hpnbench: cpuprofile: %v\n", err)
				code = max(code, 1)
			}
		}()
	}

	memoOn := false
	switch *useMemo {
	case "on":
		memoOn = true
	case "off":
	default:
		fmt.Fprintf(os.Stderr, "hpnbench: -memo must be on or off, got %q\n", *useMemo)
		return 2
	}

	if *shards < 0 {
		fmt.Fprintf(os.Stderr, "hpnbench: -shards must be >= 0, got %d\n", *shards)
		return 2
	}
	// -memo and -shards compose: sharded trainers close memoization windows
	// at the cross-pod gate (pod-local record/replay), so both can be on at
	// once — the sharded determinism gates cover exactly this combination.
	hpn.SetShardWorkers(*shards)

	if *list {
		for _, e := range hpn.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var hub *hpn.TelemetryHub
	if *traceOut != "" || *promOut != "" || *inbandTo != "" || *healthTo != "" || *profTo != "" || memoOn {
		opt := hpn.DefaultTelemetryOptions()
		opt.Trace = *traceOut != ""
		opt.Inband = *inbandTo != ""
		opt.Health = *healthTo != ""
		opt.Memo = memoOn
		opt.Prof = *profTo != ""
		// Experiments build many clusters; bound the trace and the in-band
		// stream so a full sweep cannot exhaust memory.
		opt.MaxTraceEvents = 2_000_000
		opt.InbandMax = 2_000_000
		if *traceOut == "" && *promOut == "" && *inbandTo == "" && *healthTo == "" {
			// -prof alone: counters only, no sampler daemons perturbing the
			// profiled runs — the self-profiler accumulates at
			// instrumentation points and needs no periodic ticks.
			opt.SampleInterval = 0
		}
		hub = hpn.EnableDefaultTelemetry(opt)
		if memoOn {
			fmt.Println("memo: periodic sampling disabled (incompatible with fast-forward)")
		}
	}

	var s hpn.Scale
	switch *scale {
	case "quick":
		s = hpn.ScaleQuick
	case "full":
		s = hpn.ScaleFull
	default:
		fmt.Fprintf(os.Stderr, "hpnbench: unknown scale %q (quick|full)\n", *scale)
		return 2
	}

	var ids []string
	if *exp == "all" {
		for _, e := range hpn.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = []string{*exp}
	}

	failed := 0
	for _, id := range ids {
		// Wall-clock timing of the whole experiment run for the operator's
		// benefit; it never feeds simulator state or run artifacts.
		start := time.Now() //hpnlint:allow wallclock -- CLI run timing, printed only
		r, err := hpn.Run(id, s)
		wall := time.Since(start) //hpnlint:allow wallclock -- CLI run timing, printed only
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpnbench: %s: %v\n", id, err)
			failed++
			continue
		}
		fmt.Print(r.String())
		fmt.Printf("(%s scale, %.2fs)\n\n", *scale, wall.Seconds())
		if *csvDir != "" {
			files, err := r.WriteSeriesCSV(*csvDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hpnbench: csv: %v\n", err)
				failed++
			}
			for _, f := range files {
				fmt.Printf("wrote %s\n", f)
			}
		}
		if !r.Holds() {
			failed++
		}
	}
	if hub != nil {
		if *traceOut != "" {
			if err := writeFile(*traceOut, func(f *os.File) error {
				_, err := hub.Tracer.WriteTo(f)
				return err
			}); err != nil {
				fmt.Fprintf(os.Stderr, "hpnbench: trace: %v\n", err)
				failed++
			} else {
				// Drops surface through the shared OverflowWarnings pass
				// below, same as hpnsim.
				fmt.Printf("wrote %s (%d events)\n", *traceOut, hub.Tracer.Events())
			}
		}
		if *promOut != "" {
			if err := writeFile(*promOut, func(f *os.File) error {
				return hub.Registry.WritePrometheus(f)
			}); err != nil {
				fmt.Fprintf(os.Stderr, "hpnbench: metrics: %v\n", err)
				failed++
			} else {
				fmt.Printf("wrote %s\n", *promOut)
			}
		}
		for _, dir := range artifactDirs(*inbandTo, *healthTo, *profTo) {
			paths, err := hub.WriteArtifacts(dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hpnbench: artifacts: %v\n", err)
				failed++
			}
			for _, p := range paths {
				fmt.Printf("wrote %s\n", p)
			}
		}
		for _, w := range hpn.OverflowWarnings(hub) {
			fmt.Fprintln(os.Stderr, "hpnbench:", w)
		}
	}
	if *memOut != "" {
		if err := writeFile(*memOut, func(f *os.File) error {
			return pprof.Lookup("allocs").WriteTo(f, 0)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "hpnbench: memprofile: %v\n", err)
			failed++
		} else {
			fmt.Printf("wrote %s\n", *memOut)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "hpnbench: %d experiment(s) with failing claims\n", failed)
		return 1
	}
	return 0
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
