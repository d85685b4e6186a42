package hpn

import "fmt"

func init() {
	register("multipod", "Sharded event loop: multi-pod training on parallel per-pod engines", runMultiPod)
}

// multiPodRun summarizes one sharded multi-pod training run.
type multiPodRun struct {
	simRun
	rounds    int
	windows   int
	exchanged int
}

// runMultiPodTraining drives a `pods`-pod HPN fabric — one training job per
// pod plus the cross-pod gradient exchange on the global domain — through
// the windowed coordinator with the given worker count, joined to hub.
func runMultiPodTraining(hub *TelemetryHub, pods, hostsPerPod, iters, workers int) (*multiPodRun, error) {
	cfg := MultiPodHPN(pods, 1, hostsPerPod, 4)
	r, err := Scenario{HPN: &cfg, Model: LLaMa13B, TP: 8, PP: 1, Hosts: hostsPerPod, Iterations: iters,
		Workers: workers}.build(hub)
	if err != nil {
		return nil, err
	}
	out, err := runOutcome(r)
	if err != nil {
		return nil, err
	}
	sc, st := r.Sharded, r.ShardedTrainer
	if st.FirstErr != nil {
		return nil, st.FirstErr
	}
	return &multiPodRun{simRun: out, rounds: st.Rounds,
		windows: sc.Coord.Windows, exchanged: sc.Coord.Exchanged}, nil
}

// runMultiPod runs one fabric serially and with one worker per pod.
func runMultiPod(env Env) (*Report, error) {
	r := &Report{ID: "multipod", Title: "Sharded event loop: conservative-window parallel multi-pod simulation"}
	pods, hostsPerPod, iters := 4, 8, 12
	if env.Scale == ScaleFull {
		pods, hostsPerPod, iters = 8, 16, 40
	}
	serial, err := runMultiPodTraining(env.Hub, pods, hostsPerPod, iters, 1)
	if err != nil {
		return nil, err
	}
	par, err := runMultiPodTraining(env.Hub, pods, hostsPerPod, iters, pods)
	if err != nil {
		return nil, err
	}
	r.AddTable(Table{
		Title:  fmt.Sprintf("LLaMa-13B, %d pods x %d hosts, %d iterations, %d workers", pods, hostsPerPod, iters, pods),
		Header: []string{"metric", "workers=1", fmt.Sprintf("workers=%d", pods)},
		Rows: [][]string{
			{"simulated flows", fmtF(float64(serial.flows)), fmtF(float64(par.flows))},
			{"samples/s (simulated)", fmtF(serial.samplesSec), fmtF(par.samplesSec)},
			{"conservative windows", fmtF(float64(serial.windows)), fmtF(float64(par.windows))},
			{"cross-domain posts", fmtF(float64(serial.exchanged)), fmtF(float64(par.exchanged))},
		},
	})
	r.AddClaim("identical simulated results", "bit-equal flows, clocks and window structure",
		fmt.Sprintf("%d vs %d flows, %.6g vs %.6g sim-s, %d vs %d windows",
			serial.flows, par.flows, serial.simSeconds, par.simSeconds, serial.windows, par.windows),
		serial.flows == par.flows && serial.simSeconds == par.simSeconds && //hpnlint:allow floateq -- parallel windows must be bit-exact
			serial.windows == par.windows && serial.exchanged == par.exchanged &&
			serial.samplesSec == par.samplesSec) //hpnlint:allow floateq -- parallel windows must be bit-exact
	r.AddClaim("every iteration crossed the global barrier",
		fmt.Sprintf("%d cross-pod rounds", iters), fmt.Sprintf("%d", par.rounds), par.rounds == iters)
	return r, nil
}
