// Command hpntopo builds a fabric, prints its inventory and oversubscription
// figures, and validates the wiring against the blueprint — the software
// equivalent of the INT-probe checks the paper uses to eradicate wiring
// mistakes before end-to-end testing (§10).
//
// Usage:
//
//	hpntopo -arch hpn                 # the production 15K-GPU pod
//	hpntopo -arch hpn -pods 2         # multi-pod with tier3 Core layer
//	hpntopo -arch hpn -single-plane   # the Figure 12a Clos ablation
//	hpntopo -arch dcn                 # the Appendix C baseline
//	hpntopo -arch frontend            # the §8 frontend network
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"

	"hpn/internal/hashing"
	"hpn/internal/route"
	"hpn/internal/topo"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole command, returning the exit status: 0 when the wiring
// validates, 1 on a build, trace or validation failure, 2 on a usage
// error. A flag the chosen architecture has no use for is a usage error,
// not silently ignored.
func run(args []string) (code int) {
	fs := flag.NewFlagSet("hpntopo", flag.ContinueOnError)
	var (
		arch        = fs.String("arch", "hpn", "hpn | dcn | frontend")
		pods        = fs.Int("pods", 1, "hpn, dcn: number of pods")
		segments    = fs.Int("segments", 0, "hpn: segments per pod (0 = the default 15)")
		singleToR   = fs.Bool("single-tor", false, "hpn: single-ToR access (reliability baseline)")
		singlePlane = fs.Bool("single-plane", false, "hpn: typical-Clos tier2 (Figure 12a)")
		trace       = fs.String("trace", "", "INT-style path trace: 'srcHost:nic:port->dstHost:nic' (e.g. 0:0:1->200:0)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(os.Stderr, "hpntopo: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q (every option is a flag)", fs.Arg(0))
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	archFlags := map[string][]string{
		"hpn":      {"pods", "segments", "single-tor", "single-plane"},
		"dcn":      {"pods"},
		"frontend": nil,
	}
	own, ok := archFlags[*arch]
	if !ok {
		return usage("unknown arch %q (want hpn, dcn or frontend)", *arch)
	}
	for _, name := range archFlags["hpn"] { // hpn takes every arch-specific flag
		if set[name] && !slices.Contains(own, name) {
			return usage("-%s does not apply to -arch %s", name, *arch)
		}
	}
	switch {
	case *pods < 1:
		return usage("-pods must be >= 1, got %d", *pods)
	case *segments < 0:
		return usage("-segments must be >= 0 (0 = the default), got %d", *segments)
	}

	var (
		t   *topo.Topology
		err error
	)
	switch *arch {
	case "hpn":
		cfg := topo.DefaultHPN()
		cfg.Pods = *pods
		if *segments > 0 {
			cfg.SegmentsPerPod = *segments
		}
		if *singleToR {
			cfg.DualToR = false
			cfg.DualPlane = false
		}
		if *singlePlane {
			cfg.DualPlane = false
		}
		t, err = topo.BuildHPN(cfg)
		if err == nil {
			fmt.Printf("ToR oversubscription:      %.3f:1\n", topo.OversubscriptionToR(cfg))
			fmt.Printf("Agg-Core oversubscription: %.0f:1\n", topo.OversubscriptionAggCore(cfg))
		}
	case "dcn":
		cfg := topo.DefaultDCN()
		cfg.Pods = *pods
		t, err = topo.BuildDCN(cfg)
	case "frontend":
		t, err = topo.BuildFrontend(topo.DefaultFrontend())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpntopo: %v\n", err)
		return 1
	}

	c := t.Count()
	fmt.Printf("architecture: %s (%d plane(s), %d pod(s))\n", t.Arch, t.Planes, t.Pods)
	fmt.Printf("hosts: %d   GPUs: %d (%d active)\n", c.Hosts, c.GPUs, t.TotalGPUs(true))
	fmt.Printf("ToRs: %d   Aggs: %d   Cores: %d\n", c.ToRs, c.Aggs, c.Cores)
	fmt.Printf("cables: %d\n", c.Cables)

	if *trace != "" {
		var sh, sn, sp, dh, dn int
		if _, err := fmt.Sscanf(*trace, "%d:%d:%d->%d:%d", &sh, &sn, &sp, &dh, &dn); err != nil {
			return usage("bad -trace %q: %v", *trace, err)
		}
		src := route.Endpoint{Host: sh, NIC: sn}
		dst := route.Endpoint{Host: dh, NIC: dn}
		tuple := hashing.FiveTuple{SrcAddr: src.Addr(), DstAddr: dst.Addr(),
			SrcPort: 54321, DstPort: 4791, Proto: 17}
		hops, err := route.New(t).Trace(src, dst, sp, tuple, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpntopo: trace: %v\n", err)
			if errors.Is(err, route.ErrNoEndpoint) {
				return 2
			}
			return 1
		}
		fmt.Print(route.FormatTrace(hops))
	}

	if errs := t.Validate(); len(errs) > 0 {
		fmt.Printf("wiring validation: %d VIOLATIONS\n", len(errs))
		for i, e := range errs {
			if i == 10 {
				fmt.Println("  ... (truncated)")
				break
			}
			fmt.Printf("  %v\n", e)
		}
		return 1
	}
	fmt.Println("wiring validation: OK (all links match the blueprint)")
	return 0
}
