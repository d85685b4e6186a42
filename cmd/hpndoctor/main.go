// Command hpndoctor renders the online health monitor's causal timeline:
// the incidents.tsv artifact a run exported (under hpnsim/hpnbench
// -health) becomes a chronological incident listing, a per-iteration
// attribution timeline ("iteration 47: +31% comm time <- flap-storm on
// tor3<->agg2"), and a one-line verdict.
//
// Usage:
//
//	hpndoctor -in artifacts/incidents.tsv
//
// Exit codes follow the hpnview convention: 0 healthy, 1 I/O failure,
// 2 usage, 3 fabric incidents detected, 4 iterations regressed with no
// fabric incident to blame.
package main

import (
	"flag"
	"fmt"
	"os"

	"hpn/internal/health"
	"hpn/internal/sim"
)

func main() {
	var (
		in  = flag.String("in", "incidents.tsv", "health timeline TSV artifact to render")
		all = flag.Bool("all", false, "list every iteration, not just regressed ones")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "hpndoctor: unexpected argument %q (every option is a flag)\n", flag.Arg(0))
		os.Exit(2)
	}

	f, err := os.Open(*in)
	if err != nil {
		fail(err)
	}
	incs, iters, err := health.ParseTSV(f)
	f.Close()
	if err != nil {
		fail(err)
	}
	if len(incs) == 0 && len(iters) == 0 {
		fail(fmt.Errorf("%s holds no timeline rows; was the run driven with -health?", *in))
	}

	s := health.Summarize(incs, iters)
	fmt.Printf("%s: %d incidents (%d open), %d iterations (%d regressed, %d attributed)\n",
		*in, s.Incidents, s.Open, s.Iterations, s.Regressed, s.Attributed)

	if len(incs) > 0 {
		fmt.Println("\nincidents:")
		for i := range incs {
			inc := &incs[i]
			state := fmt.Sprintf("%v .. %v", inc.Start, inc.End)
			if inc.Open {
				state = fmt.Sprintf("%v .. (still open)", inc.Start)
			}
			fmt.Printf("  #%-3d %-20s %-28s %-30s events=%-5d peak=%-8.3g %s\n",
				inc.ID, inc.Kind, inc.Subject, state, inc.Events, inc.Peak, inc.Detail)
		}
	}

	shown := 0
	for i := range iters {
		it := &iters[i]
		if !*all && !it.Regressed {
			continue
		}
		if shown == 0 {
			if *all {
				fmt.Println("\niteration timeline:")
			} else {
				fmt.Println("\nregressed iterations:")
			}
		}
		shown++
		fmt.Printf("  [%v] %s\n", sim.Time(it.End), it.Verdict(incs))
	}

	fmt.Printf("\nverdict: %s\n", s.Verdict())
	os.Exit(s.ExitCode())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hpndoctor:", err)
	os.Exit(1)
}
