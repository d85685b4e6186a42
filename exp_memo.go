package hpn

import (
	"fmt"

	"hpn/internal/memo"
)

func init() {
	register("memo", "Iteration memoization: long-horizon training fast-forward", runMemo)
}

// simRun is one training run's simulated outcome: the memo and multipod
// experiments run one scenario two ways and compare these bit for bit.
type simRun struct {
	flows      int64
	samplesSec float64
	simSeconds float64
}

// runOutcome runs r and sums the flows every engine completed. Samples/s
// are the first trainer's.
func runOutcome(r *ScenarioRun) (simRun, error) {
	if err := r.Run(); err != nil {
		return simRun{}, err
	}
	tr := r.Trainer
	if r.ShardedTrainer != nil {
		tr = r.ShardedTrainer.Trainers[0]
	}
	out := simRun{samplesSec: tr.MeanSamplesPerSecond(), simSeconds: r.clusters()[0].Eng.Now().Seconds()}
	for _, c := range r.clusters() {
		out.flows += c.Net.CompletedFlows
	}
	return out, nil
}

// memoRun summarizes one long-horizon training run.
type memoRun struct {
	simRun
	stats memo.Stats
}

// runMemoTraining drives iters steady-state iterations on a single-segment
// HPN pod (the fig13-style dual-ToR fabric), with or without the iteration
// memoization recorder.
func runMemoTraining(iters int, enable bool) (*memoRun, error) {
	cfg := SmallHPN(1, 8, 8)
	r, err := Scenario{HPN: &cfg, Model: LLaMa13B, TP: 8, PP: 1, Hosts: 8, Iterations: iters,
		Telemetry: &TelemetryOptions{Memo: enable}}.Build()
	if err != nil {
		return nil, err
	}
	out, err := runOutcome(r)
	if err != nil {
		return nil, err
	}
	run := &memoRun{simRun: out}
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
	r.AddTable(Table{
		Title:  fmt.Sprintf("LLaMa-13B, 64 GPUs, %d iterations", iters),
		Header: []string{"metric", "memo off", "memo on"},
		Rows: [][]string{
			{"simulated flows", fmtF(float64(off.flows)), fmtF(float64(on.flows))},
			{"samples/s (simulated)", fmtF(off.samplesSec), fmtF(on.samplesSec)},
			{"iterations replayed", "0", fmtF(float64(on.stats.Replayed))},
		},
	})
	r.AddClaim("steady state fast-forwards from the cache", fmt.Sprintf("%d+ replayed", iters-10),
		fmt.Sprintf("%d/%d", on.stats.Replayed, iters), on.stats.Replayed >= int64(iters-10))
	// Replay must be bit-exact, so the simulated outcomes are compared
	// exactly, not within a tolerance.
	r.AddClaim("identical simulated results", "bit-equal samples/s and flow count",
		fmt.Sprintf("%.6g vs %.6g samples/s, %d vs %d flows", off.samplesSec, on.samplesSec, off.flows, on.flows),
		off.samplesSec == on.samplesSec && off.flows == on.flows && off.simSeconds == on.simSeconds) //hpnlint:allow floateq -- replay must be bit-exact
	return r, nil
}
