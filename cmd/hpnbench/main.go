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
	"slices"
	"time"

	"hpn"
	"hpn/cmd/internal/observe"
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
		exp    = fs.String("exp", "all", "experiment ID (see -list) or 'all'")
		scale  = fs.String("scale", "quick", "quick | full")
		list   = fs.Bool("list", false, "list experiments and exit")
		csvDir = fs.String("csv", "", "also dump recorded time series as CSV into this directory")
		obs    = observe.Register(fs)
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "hpnbench: unexpected argument %q (every option is a flag)\n", fs.Arg(0))
		return 2
	}

	stop, err := obs.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpnbench:", err)
		return 1
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "hpnbench:", err)
			code = max(code, 1)
		}
	}()

	opt, err := obs.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpnbench:", err)
		return 2
	}

	if *list {
		for _, e := range hpn.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	// -memo composes with every experiment, sharded ones included: sharded
	// trainers close memoization windows at the cross-pod gate (pod-local
	// record/replay). No observer moves a report; the experiment test pins
	// every quick-scale report under an observing hub and a memo hub.
	var env hpn.Env
	if opt != nil {
		// Experiments build many clusters; bound the trace and the in-band
		// stream so a full sweep cannot exhaust memory.
		opt.MaxTraceEvents = 2_000_000
		opt.InbandMax = 2_000_000
		env.Hub = hpn.NewTelemetryHub(*opt)
	}

	switch *scale {
	case "quick":
		env.Scale = hpn.ScaleQuick
	case "full":
		env.Scale = hpn.ScaleFull
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
		if !slices.Contains(hpn.ExperimentIDs(), *exp) {
			fmt.Fprintf(os.Stderr, "hpnbench: unknown experiment %q (have %v)\n", *exp, hpn.ExperimentIDs())
			return 2
		}
		ids = []string{*exp}
	}

	failed := 0
	for _, id := range ids {
		// Wall-clock timing of the whole experiment run for the operator's
		// benefit; it never feeds simulator state or run artifacts.
		start := time.Now() //hpnlint:allow wallclock -- CLI run timing, printed only
		r, err := hpn.Run(id, env)
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
	if !obs.Write(env.Hub) {
		failed++
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "hpnbench: %d experiment(s) with failing claims\n", failed)
		return 1
	}
	return 0
}
