package hpn

import (
	"fmt"
	"time"

	"hpn/internal/memo"
)

func init() {
	register("memo", "Iteration memoization: long-horizon training fast-forward", runMemo)
}

// hostRun is one training run's simulated outcome next to the host time
// it took: the memo and multipod experiments claim host-process speedups
// at identical simulated results.
type hostRun struct {
	wallSec     float64
	flows       int64
	flowsPerSec float64
	samplesSec  float64
	simSeconds  float64
}

// timeRun runs r, timing only the run on the host clock, and sums the
// flows every engine completed. Samples/s are the first trainer's.
func timeRun(r *ScenarioRun) (hostRun, error) {
	start := time.Now() //hpnlint:allow wallclock -- measured speedup is the experiment's subject
	err := r.Run()
	wall := time.Since(start) //hpnlint:allow wallclock -- measured speedup is the experiment's subject
	if err != nil {
		return hostRun{}, err
	}
	tr := r.Trainer
	if r.ShardedTrainer != nil {
		tr = r.ShardedTrainer.Trainers[0]
	}
	h := hostRun{wallSec: wall.Seconds(), samplesSec: tr.MeanSamplesPerSecond()}
	for _, c := range r.clusters() {
		h.flows += c.Net.CompletedFlows
	}
	h.simSeconds = r.clusters()[0].Eng.Now().Seconds()
	if h.wallSec > 0 {
		h.flowsPerSec = float64(h.flows) / h.wallSec
	}
	return h, nil
}

// memoRun summarizes one long-horizon training run.
type memoRun struct {
	hostRun
	stats memo.Stats
}

// runMemoTraining drives iters steady-state iterations on a single-segment
// HPN pod (the fig13-style dual-ToR fabric), with or without the iteration
// memoization recorder, and measures simulated-flow throughput of the host
// process.
func runMemoTraining(iters int, enable bool) (*memoRun, error) {
	cfg := SmallHPN(1, 8, 8)
	r, err := Scenario{HPN: &cfg, Model: LLaMa13B, TP: 8, PP: 1, Hosts: 8, Iterations: iters,
		Telemetry: &TelemetryOptions{Memo: enable}}.Build()
	if err != nil {
		return nil, err
	}
	h, err := timeRun(r)
	if err != nil {
		return nil, err
	}
	run := &memoRun{hostRun: h}
	if rec := MemoRecorderOf(r.Cluster); rec != nil {
		run.stats = rec.Stats()
	}
	return run, nil
}

func runMemo(env Env) (*Report, error) {
	r := &Report{ID: "memo", Title: "Iteration memoization: long-horizon steady-state training"}
	iters := 300
	if env.Scale == ScaleFull {
		iters = 1000
	}
	off, err := runMemoTraining(iters, false)
	if err != nil {
		return nil, err
	}
	on, err := runMemoTraining(iters, true)
	if err != nil {
		return nil, err
	}
	speedup := 0.0
	if on.wallSec > 0 {
		speedup = off.wallSec / on.wallSec
	}
	r.AddTable(Table{
		Title:  fmt.Sprintf("LLaMa-13B, 64 GPUs, %d iterations", iters),
		Header: []string{"metric", "memo off", "memo on"},
		Rows: [][]string{
			{"wall time (s)", fmtF(off.wallSec), fmtF(on.wallSec)},
			{"simulated flows", fmtF(float64(off.flows)), fmtF(float64(on.flows))},
			{"simulated flows/sec (host)", fmtF(off.flowsPerSec), fmtF(on.flowsPerSec)},
			{"samples/s (simulated)", fmtF(off.samplesSec), fmtF(on.samplesSec)},
			{"iterations replayed", "0", fmtF(float64(on.stats.Replayed))},
		},
	})
	r.AddClaim("steady state fast-forwards from the cache", fmt.Sprintf("%d+ replayed", iters-10),
		fmt.Sprintf("%d/%d", on.stats.Replayed, iters), on.stats.Replayed >= int64(iters-10))
	r.AddClaim("host-process speedup", ">=10x flows/sec", fmt.Sprintf("%.1fx", speedup), speedup >= 10)
	// Replay must be bit-exact, so the simulated outcomes are compared
	// exactly, not within a tolerance.
	r.AddClaim("identical simulated results", "bit-equal samples/s and flow count",
		fmt.Sprintf("%.6g vs %.6g samples/s, %d vs %d flows", off.samplesSec, on.samplesSec, off.flows, on.flows),
		off.samplesSec == on.samplesSec && off.flows == on.flows && off.simSeconds == on.simSeconds) //hpnlint:allow floateq -- replay must be bit-exact
	return r, nil
}
