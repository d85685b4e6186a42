// Failover: train a model while a NIC-ToR link fails, comparing the paper's
// non-stacked dual-ToR access against the traditional single-ToR design —
// a miniature of Figure 18a.
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"

	"hpn"
	"hpn/internal/sim"
)

func run(dualToR bool) {
	cfg := hpn.SmallHPN(2, 4, 4)
	label := "dual-ToR"
	if !dualToR {
		cfg.DualToR = false
		cfg.DualPlane = false
		label = "single-ToR"
	}
	// Fail one NIC-ToR link at t=10s; repair at t=30s.
	r, err := hpn.Scenario{HPN: &cfg, Model: hpn.LLaMa7B, TP: 1, PP: 1, Hosts: 8, Iterations: 100000,
		Horizon: 45 * sim.Second,
		Faults:  []hpn.LinkFault{{FailAt: 10 * sim.Second, RecoverAt: 30 * sim.Second}}}.Build()
	if err != nil {
		log.Fatal(err)
	}
	if err := r.Run(); err != nil {
		log.Fatal(err)
	}
	trainer := r.Trainer

	fmt.Printf("\n%s: %d iterations in 45s\n", label, trainer.Iterations)
	fmt.Println("  t(s)   samples/s")
	last := -5.0
	for _, p := range trainer.Perf.Points {
		if p.T-last < 2.0 { // thin the timeline for readability
			continue
		}
		last = p.T
		fmt.Printf("  %5.1f  %8.1f\n", p.T, p.V)
	}
}

func main() {
	fmt.Println("LLaMa-7B on 64 GPUs; NIC-ToR link fails at t=10s, repaired at t=30s")
	run(true)
	run(false)
	fmt.Println("\nDual-ToR degrades ~6% and recovers instantly; single-ToR halts outright.")
}
