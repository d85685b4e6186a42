package hpn

import (
	"slices"
	"testing"

	"hpn/internal/failure"
	"hpn/internal/sim"
)

// A compressed soak run: train for two virtual hours while NIC-ToR links
// fail at (accelerated) production-like rates with slow repairs. The §2.3
// arithmetic says a single-point-of-failure fabric turns every such fault
// into a crash-and-rollback; HPN's dual-ToR turns them all into transient
// degradation. This test drives both through the same fault schedule.
func TestSoakFailuresUnderProductionRates(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	const (
		hosts     = 8
		horizon   = 2 * sim.Hour
		faults    = 3
		interFail = 35 * sim.Minute
		repair    = 4 * sim.Minute // beyond the collective timeout
	)

	run := func(dualToR bool) (iterations int, crashed bool) {
		cfg := SmallHPN(2, hosts/2, 4)
		if !dualToR {
			cfg.DualToR = false
			cfg.DualPlane = false
		}
		s := Scenario{HPN: &cfg, Model: LLaMa7B, TP: 1, PP: 1, Hosts: hosts, Iterations: 1 << 30, Horizon: horizon}
		rng := sim.NewRNG(1234)
		at := 10 * sim.Minute
		for i := 0; i < faults; i++ {
			// Host IDs 0..hosts-1 are the segment-first placement; the
			// check below holds the draw to it.
			s.Faults = append(s.Faults, LinkFault{Host: rng.Intn(hosts), NIC: rng.Intn(8),
				FailAt: at, RecoverAt: at + repair})
			at += interFail
		}
		r, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range s.Faults {
			if !slices.Contains(r.Trainer.Job.Hosts, f.Host) {
				t.Fatalf("fault host %d is not in the placement %v", f.Host, r.Trainer.Job.Hosts)
			}
		}
		w := failure.NewWatchdog(r.Cluster.Net)
		w.Watch(horizon)
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		crashed, _ = w.Crashed()
		return r.Trainer.Iterations, crashed
	}

	dualIters, dualCrashed := run(true)
	singleIters, singleCrashed := run(false)

	if dualCrashed {
		t.Error("dual-ToR job crashed during the soak; §9.3 reports none in 8 months")
	}
	if !singleCrashed {
		t.Error("single-ToR job survived multi-minute repairs; it must crash")
	}
	// Dual-ToR should complete nearly the fault-free iteration budget.
	wantIters := int(horizon.Seconds() / 0.65) // ~0.57s/iter plus slack
	if dualIters < wantIters*9/10 {
		t.Errorf("dual-ToR completed %d iterations, want >= %d", dualIters, wantIters*9/10)
	}
	if singleIters >= dualIters {
		t.Errorf("single-ToR (%d iters incl. post-crash stall) should trail dual-ToR (%d)",
			singleIters, dualIters)
	}
}
