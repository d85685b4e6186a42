package hpn

import (
	"fmt"
	"math"

	"hpn/internal/failure"
	"hpn/internal/metrics"
	"hpn/internal/sim"
)

func init() {
	register("fig18", "Performance under NIC-ToR link malfunctions", runFig18)
}

// fig18Run trains LLaMa-7B on the given access design while injecting the
// requested malfunction, and summarizes the throughput timeline.
type fig18Run struct {
	preMean    float64 // samples/s before the fault
	faultMean  float64 // samples/s while the fault is active
	postMean   float64 // samples/s after repair
	maxGap     float64 // longest inter-iteration gap (seconds)
	iterations int
	crashed    bool
	crashedAt  sim.Time
}

// runFig18Case trains on `hosts` hosts until the horizon through the link
// fault f (fig18 always hits host 0's NIC 0, port 0).
func runFig18Case(env Env, dualToR bool, hosts int, f LinkFault, horizon sim.Time) (*fig18Run, error) {
	cfg := SmallHPN(2, hosts/2, 8)
	if !dualToR {
		cfg.DualToR = false
		cfg.DualPlane = false
	}
	r, err := Scenario{HPN: &cfg, Model: LLaMa7B, TP: 1, PP: 1, Hosts: hosts, Iterations: 100000,
		Horizon: horizon, Faults: []LinkFault{f}}.build(env.Hub)
	if err != nil {
		return nil, err
	}
	w := failure.NewWatchdog(r.Cluster.Net)
	w.Watch(horizon)
	if err := r.Run(); err != nil {
		return nil, err
	}

	tr := r.Trainer
	run := &fig18Run{iterations: tr.Iterations}
	run.crashed, run.crashedAt = w.Crashed()
	repair := f.RecoverAt
	if f.Flaps > 0 {
		repair = f.FailAt + sim.Time(f.Flaps)*(flapDown+flapUp)
	}
	var prev float64
	for i, p := range tr.Perf.Points {
		if i > 0 {
			run.maxGap = math.Max(run.maxGap, p.T-prev)
		}
		prev = p.T
	}
	pre := tr.Perf.Window(0, f.FailAt.Seconds())
	run.preMean = meanV(pre)
	if repair > 0 {
		run.faultMean = meanV(tr.Perf.Window(f.FailAt.Seconds()+2, repair.Seconds()))
		run.postMean = meanV(tr.Perf.Window(repair.Seconds()+5, horizon.Seconds()))
	} else {
		run.faultMean = meanV(tr.Perf.Window(f.FailAt.Seconds()+2, horizon.Seconds()))
	}
	return run, nil
}

func meanV(pts []metrics.Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range pts {
		s += p.V
	}
	return s / float64(len(pts))
}

func runFig18(env Env) (*Report, error) {
	r := &Report{ID: "fig18", Title: "Training under NIC-ToR link failure and flapping"}
	hosts := 8
	if env.Scale == ScaleFull {
		hosts = 32 // the paper's 256 GPUs
	}
	horizon := 70 * sim.Second
	fault := LinkFault{FailAt: 10 * sim.Second, RecoverAt: 40 * sim.Second}

	dual, err := runFig18Case(env, true, hosts, fault, horizon)
	if err != nil {
		return nil, err
	}
	single, err := runFig18Case(env, false, hosts, fault, horizon)
	if err != nil {
		return nil, err
	}
	// Single-ToR with a repair beyond the collective timeout: crash.
	late, err := runFig18Case(env, false, hosts, LinkFault{FailAt: 10 * sim.Second, RecoverAt: 190 * sim.Second}, 200*sim.Second)
	if err != nil {
		return nil, err
	}

	r.AddTable(Table{
		Title:  fmt.Sprintf("case 1: link failure at 10s, repaired at 40s (%d GPUs, LLaMa-7B)", hosts*8),
		Header: []string{"design", "samples/s before", "during fault", "after repair", "max stall (s)"},
		Rows: [][]string{
			{"dual-ToR", fmtF(dual.preMean), fmtF(dual.faultMean), fmtF(dual.postMean), fmtF(dual.maxGap)},
			{"single-ToR", fmtF(single.preMean), fmtF(single.faultMean), fmtF(single.postMean), fmtF(single.maxGap)},
		},
	})
	degradation := 1 - dual.faultMean/dual.preMean
	r.AddClaim("dual-ToR: only mild degradation during failure", "~6.25%",
		pct(degradation), degradation > 0 && degradation < 0.20)
	r.AddClaim("dual-ToR: instant recovery after repair", "throughput returns to normal",
		pct(dual.postMean/dual.preMean), dual.postMean > dual.preMean*0.95)
	r.AddClaim("single-ToR: training halts during failure", "halts immediately",
		fmtF(single.faultMean)+" samples/s", single.faultMean < 1e-9)
	r.AddClaim("single-ToR: recovers when repaired within ~1 minute", "recovers",
		pct(single.postMean/single.preMean), !single.crashed && single.postMean > single.preMean*0.9)
	r.AddClaim("single-ToR: crashes when repair takes >2 minutes", "cannot recover",
		fmt.Sprintf("crashed=%v at %v", late.crashed, late.crashedAt), late.crashed)

	// Case 2: link flapping.
	flap := LinkFault{FailAt: 10 * sim.Second, Flaps: 6}
	dualFlap, err := runFig18Case(env, true, hosts, flap, 45*sim.Second)
	if err != nil {
		return nil, err
	}
	singleFlap, err := runFig18Case(env, false, hosts, flap, 45*sim.Second)
	if err != nil {
		return nil, err
	}
	r.AddTable(Table{
		Title:  "case 2: link flapping (6 cycles of 1.5s down / 0.5s up)",
		Header: []string{"design", "max stall (s)", "iterations in 45s"},
		Rows: [][]string{
			{"dual-ToR", fmtF(dualFlap.maxGap), fmtF(float64(dualFlap.iterations))},
			{"single-ToR", fmtF(singleFlap.maxGap), fmtF(float64(singleFlap.iterations))},
		},
	})
	r.AddClaim("flapping halts single-ToR for many seconds", ">9s",
		fmt.Sprintf("%.1fs stall", singleFlap.maxGap), singleFlap.maxGap > 3)
	r.AddClaim("flapping is negligible under dual-ToR", "negligible",
		fmt.Sprintf("%.1fs vs %.1fs stall", dualFlap.maxGap, singleFlap.maxGap),
		dualFlap.maxGap < singleFlap.maxGap/2)

	return r, nil
}
