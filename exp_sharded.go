package hpn

import (
	"fmt"
	"runtime"
)

func init() {
	register("multipod", "Sharded event loop: multi-pod training on parallel per-pod engines", runMultiPod)
}

// multiPodRun summarizes one sharded multi-pod training run.
type multiPodRun struct {
	hostRun
	workers   int // resolved worker count
	rounds    int
	windows   int
	exchanged int
}

// runMultiPodTraining drives a `pods`-pod HPN fabric — one training job per
// pod plus the cross-pod gradient exchange on the global domain — through
// the windowed coordinator with the given worker count, joined to hub,
// and measures simulated-flow throughput of the host process.
func runMultiPodTraining(hub *TelemetryHub, pods, hostsPerPod, iters, workers int) (*multiPodRun, error) {
	cfg := MultiPodHPN(pods, 1, hostsPerPod, 4)
	r, err := Scenario{HPN: &cfg, Model: LLaMa13B, TP: 8, PP: 1, Hosts: hostsPerPod, Iterations: iters,
		Workers: workers}.build(hub)
	if err != nil {
		return nil, err
	}
	h, err := timeRun(r)
	if err != nil {
		return nil, err
	}
	sc, st := r.Sharded, r.ShardedTrainer
	if st.FirstErr != nil {
		return nil, st.FirstErr
	}
	return &multiPodRun{hostRun: h, workers: sc.Coord.Workers(), rounds: st.Rounds,
		windows: sc.Coord.Windows, exchanged: sc.Coord.Exchanged}, nil
}

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
	par, err := runMultiPodTraining(env.Hub, pods, hostsPerPod, iters, env.Workers)
	if err != nil {
		return nil, err
	}
	workers := par.workers
	speedup := 0.0
	if par.wallSec > 0 {
		speedup = serial.wallSec / par.wallSec
	}
	r.AddTable(Table{
		Title:  fmt.Sprintf("LLaMa-13B, %d pods x %d hosts, %d iterations, %d workers", pods, hostsPerPod, iters, workers),
		Header: []string{"metric", "workers=1", fmt.Sprintf("workers=%d", workers)},
		Rows: [][]string{
			{"wall time (s)", fmtF(serial.wallSec), fmtF(par.wallSec)},
			{"simulated flows", fmtF(float64(serial.flows)), fmtF(float64(par.flows))},
			{"simulated flows/sec (host)", fmtF(serial.flowsPerSec), fmtF(par.flowsPerSec)},
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
	if runtime.NumCPU() >= 4 && workers >= 4 {
		r.AddClaim("parallel shard windows speed up the host process", ">=1.5x wall",
			fmt.Sprintf("%.2fx (%d-core host)", speedup, runtime.NumCPU()), speedup >= 1.5)
	} else {
		r.AddNote("speedup claim skipped: %d workers on a %d-core host (need >=4 of each); measured %.2fx",
			workers, runtime.NumCPU(), speedup)
	}
	return r, nil
}
