// Training: run the same LLaMa-13B job on HPN and on the DCN+ baseline and
// compare end-to-end iteration throughput — a miniature of the paper's
// Figure 16 evaluation.
//
//	go run ./examples/training
package main

import (
	"fmt"
	"log"

	"hpn"
)

const hosts = 24 // 192 GPUs

func run(arch string) (samplesPerSec float64, segments int) {
	s := hpn.Scenario{Model: hpn.LLaMa13B, TP: 8, PP: 1, Hosts: hosts, Iterations: 5}
	if arch == "hpn" {
		// One HPN segment holds the whole job: pure tier1 networking.
		cfg := hpn.SmallHPN(1, hosts, 8)
		s.HPN = &cfg
	} else {
		// DCN+ segments hold 16 hosts: the same job spans two of them.
		cfg := hpn.SmallDCN(1)
		s.DCN = &cfg
	}
	r, err := s.Build()
	if err != nil {
		log.Fatal(err)
	}
	if err := r.Run(); err != nil {
		log.Fatal(err)
	}
	return r.Trainer.MeanSamplesPerSecond(), r.Cluster.SegmentsSpanned(r.Trainer.Job.Hosts)
}

func main() {
	fmt.Printf("LLaMa-13B, %d GPUs, TP=8 DP=%d, 5 iterations\n\n", hosts*8, hosts)
	dcn, dcnSegs := run("dcn")
	hpnPerf, hpnSegs := run("hpn")
	fmt.Printf("%-6s  %-10s  %-10s\n", "arch", "segments", "samples/s")
	fmt.Printf("%-6s  %-10d  %-10.1f\n", "DCN+", dcnSegs, dcn)
	fmt.Printf("%-6s  %-10d  %-10.1f\n", "HPN", hpnSegs, hpnPerf)
	fmt.Printf("\nHPN end-to-end gain: %+.1f%% (paper reports +14.4%% for LLaMa-13B)\n",
		(hpnPerf/dcn-1)*100)
}
