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

	"hpn/internal/hashing"
	"hpn/internal/route"
	"hpn/internal/topo"
)

func main() {
	var (
		arch        = flag.String("arch", "hpn", "hpn | dcn | frontend")
		pods        = flag.Int("pods", 1, "number of pods")
		segments    = flag.Int("segments", 0, "segments per pod (0 = architecture default)")
		singleToR   = flag.Bool("single-tor", false, "HPN: single-ToR access (reliability baseline)")
		singlePlane = flag.Bool("single-plane", false, "HPN: typical-Clos tier2 (Figure 12a)")
		trace       = flag.String("trace", "", "INT-style path trace: 'srcHost:nic:port->dstHost:nic' (e.g. 0:0:1->200:0)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "hpntopo: unexpected argument %q (every option is a flag)\n", flag.Arg(0))
		os.Exit(2)
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
		if *pods > 0 {
			cfg.Pods = *pods
		}
		t, err = topo.BuildDCN(cfg)
	case "frontend":
		t, err = topo.BuildFrontend(topo.DefaultFrontend())
	default:
		fmt.Fprintf(os.Stderr, "hpntopo: unknown arch %q\n", *arch)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpntopo: %v\n", err)
		os.Exit(1)
	}

	c := t.Count()
	fmt.Printf("architecture: %s (%d plane(s), %d pod(s))\n", t.Arch, t.Planes, t.Pods)
	fmt.Printf("hosts: %d   GPUs: %d (%d active)\n", c.Hosts, c.GPUs, t.TotalGPUs(true))
	fmt.Printf("ToRs: %d   Aggs: %d   Cores: %d\n", c.ToRs, c.Aggs, c.Cores)
	fmt.Printf("cables: %d\n", c.Cables)

	if *trace != "" {
		var sh, sn, sp, dh, dn int
		if _, err := fmt.Sscanf(*trace, "%d:%d:%d->%d:%d", &sh, &sn, &sp, &dh, &dn); err != nil {
			fmt.Fprintf(os.Stderr, "hpntopo: bad -trace %q: %v\n", *trace, err)
			os.Exit(2)
		}
		src := route.Endpoint{Host: sh, NIC: sn}
		dst := route.Endpoint{Host: dh, NIC: dn}
		tuple := hashing.FiveTuple{SrcAddr: src.Addr(), DstAddr: dst.Addr(),
			SrcPort: 54321, DstPort: 4791, Proto: 17}
		hops, err := route.New(t).Trace(src, dst, sp, tuple, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpntopo: trace: %v\n", err)
			if errors.Is(err, route.ErrNoEndpoint) {
				os.Exit(2)
			}
			os.Exit(1)
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
		os.Exit(1)
	}
	fmt.Println("wiring validation: OK (all links match the blueprint)")
}
