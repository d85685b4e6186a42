package hpn

import (
	"fmt"
	"math"

	"hpn/internal/collective"
	"hpn/internal/hashing"
	"hpn/internal/netsim"
	"hpn/internal/sim"
)

func init() {
	register("fig13", "Traffic on ToR ports towards the same NIC (Clos vs dual-plane)", runFig13)
	register("fig14", "Queue length at ToR downstream ports (Clos vs dual-plane)", runFig14)
	register("sec61a", "Dual-plane queue-length reduction", runSec61a)
	register("fig19", "AllReduce performance of dual-plane (Appendix A)", runFig19)
}

// tier2Measurement is what one cross-segment training run yields: per-NIC
// port utilizations and queue pressures at the destination dual-ToR set.
type tier2Measurement struct {
	// utilization (bps) per probed NIC per port.
	portUtil [][2]float64
	// mean queue proxy (bytes) per probed NIC per port.
	portQueue [][2]float64
}

// meanImbalance returns the average max/min port ratio per NIC, scored by
// hashing.RatioImbalance (a fully-starved port reports as the cap).
func (m *tier2Measurement) meanImbalance(cap float64) float64 {
	if len(m.portUtil) == 0 {
		return 0
	}
	sum := 0.0
	for _, u := range m.portUtil {
		sum += hashing.RatioImbalance(u[:], cap)
	}
	return sum / float64(len(m.portUtil))
}

// meanQueue averages the queue proxy over all probed ports.
func (m *tier2Measurement) meanQueue() float64 {
	if len(m.portQueue) == 0 {
		return 0
	}
	sum, n := 0.0, 0
	for _, q := range m.portQueue {
		sum += q[0] + q[1]
		n += 2
	}
	return sum / float64(n)
}

// runTier2Workload builds a 2-segment cluster of the given variant, runs a
// continuous cross-segment AllReduce, and measures the two access ports of
// every NIC on the ring's segment-boundary hosts.
func runTier2Workload(env Env, dualPlane bool) (*tier2Measurement, error) {
	hostsPerSeg, aggs, iters, size := 8, 8, 12, float64(64<<20)
	if env.Scale == ScaleFull {
		hostsPerSeg, aggs, iters, size = 16, 60, 20, 256<<20
	}
	cfg := SmallHPN(2, hostsPerSeg, aggs)
	if !dualPlane {
		cfg.DualPlane = false
		cfg.SharedHashSeed = true // the legacy tier2 deployment
	}
	c, err := env.join(NewHPN(cfg))
	if err != nil {
		return nil, err
	}
	hosts, err := c.PlaceJob(2 * hostsPerSeg)
	if err != nil {
		return nil, err
	}
	ccfg := c.CollectiveConfig()
	if !dualPlane {
		ccfg.Policy = collective.PolicyBlind
	}
	g, err := collective.NewGroup(c.Net, ccfg, hosts, 8)
	if err != nil {
		return nil, err
	}

	// Probe both access ports of every NIC on the two boundary hosts
	// (ring positions 0 and hostsPerSeg receive cross-segment traffic).
	type probePair struct{ p0, p1 *netsim.LinkProbe }
	var probes []probePair
	for _, h := range []int{hosts[0], hosts[hostsPerSeg]} {
		for nic := 0; nic < 8; nic++ {
			d0 := c.Topo.Link(c.Topo.AccessLink(h, nic, 0)).Reverse
			d1 := c.Topo.Link(c.Topo.AccessLink(h, nic, 1)).Reverse
			probes = append(probes, probePair{
				p0: c.Net.TrackLink(d0),
				p1: c.Net.TrackLink(d1),
			})
		}
	}

	done := 0
	var loop func(sim.Time, collective.Result)
	loop = func(_ sim.Time, _ collective.Result) {
		done++
		if done >= iters {
			return
		}
		if _, err := g.StartAllReduce(size, loop); err != nil {
			done = iters
		}
	}
	if _, err := g.StartAllReduce(size, loop); err != nil {
		return nil, err
	}
	c.Eng.Run()
	if done < iters {
		return nil, fmt.Errorf("hpn: tier2 workload stalled after %d iterations", done)
	}

	m := &tier2Measurement{}
	for _, pp := range probes {
		// Use bytes actually moved (mean util); skip the warm-up
		// iteration.
		warm := pp.p0.Util.Points[0].T
		m.portUtil = append(m.portUtil, [2]float64{
			pp.p0.Util.MeanAfter(warm), pp.p1.Util.MeanAfter(warm),
		})
		m.portQueue = append(m.portQueue, [2]float64{
			pp.p0.Queue.MeanAfter(warm), pp.p1.Queue.MeanAfter(warm),
		})
	}
	return m, nil
}

const imbalanceCap = 10 // report a starved port as 10x rather than infinity

func runFig13(env Env) (*Report, error) {
	r := &Report{ID: "fig13", Title: "Traffic on ToR ports towards the same NIC"}
	clos, err := runTier2Workload(env, false)
	if err != nil {
		return nil, err
	}
	dual, err := runTier2Workload(env, true)
	if err != nil {
		return nil, err
	}
	ci, di := clos.meanImbalance(imbalanceCap), dual.meanImbalance(imbalanceCap)
	r.AddTable(Table{
		Title:  "per-NIC port load ratio (max/min across the dual-ToR set)",
		Header: []string{"tier2 design", "mean ratio", "NICs probed"},
		Rows: [][]string{
			{"typical Clos", fmtF(ci), fmtF(float64(len(clos.portUtil)))},
			{"dual-plane", fmtF(di), fmtF(float64(len(dual.portUtil)))},
		},
	})
	r.AddClaim("Clos shows heavy port imbalance", "~3x between ports", fmt.Sprintf("%.1fx", ci), ci >= 2)
	r.AddClaim("dual-plane evens the ports", "~1x", fmt.Sprintf("%.2fx", di), di < 1.1)
	return r, nil
}

func runFig14(env Env) (*Report, error) {
	r := &Report{ID: "fig14", Title: "Queue length at ToR downstream ports"}
	clos, err := runTier2Workload(env, false)
	if err != nil {
		return nil, err
	}
	dual, err := runTier2Workload(env, true)
	if err != nil {
		return nil, err
	}
	cq, dq := clos.meanQueue(), dual.meanQueue()
	r.AddTable(Table{
		Title:  "mean queue pressure at dual-ToR downstream ports",
		Header: []string{"tier2 design", "mean queue (KB)"},
		Rows: [][]string{
			{"typical Clos", fmtF(cq / 1024)},
			{"dual-plane", fmtF(dq / 1024)},
		},
	})
	reduction := 1.0
	if cq > 0 {
		reduction = 1 - dq/cq
	}
	r.AddClaim("Clos builds standing queues", "hundreds of KB vs ~KB", fmt.Sprintf("%.0fKB", cq/1024), cq > 10*1024)
	r.AddClaim("dual-plane queue reduction", "91.8%", pct(reduction), reduction > 0.8)
	return r, nil
}

func runSec61a(env Env) (*Report, error) {
	r, err := runFig14(env)
	if err != nil {
		return nil, err
	}
	r.ID, r.Title = "sec61a", "Dual-plane queue-length reduction (ablation)"
	return r, nil
}

func runFig19(env Env) (*Report, error) {
	r := &Report{ID: "fig19", Title: "AllReduce busbw, single-plane vs dual-plane (cross-segment)"}
	sizes := []int{4, 8, 16} // hosts per run (n = 32..128 GPUs)
	size := float64(512 << 20)
	if env.Scale == ScaleFull {
		sizes = []int{4, 8, 16, 32}
		size = 4 << 30
	}
	rows := [][]string{}
	minGain := math.Inf(1)
	for _, h := range sizes {
		run := func(dualPlane bool) (float64, error) {
			cfg := SmallHPN(2, h/2, 8)
			if env.Scale == ScaleFull {
				cfg.AggsPerPlane = 60
			}
			if !dualPlane {
				cfg.DualPlane = false
				cfg.SharedHashSeed = true
			}
			c, err := env.join(NewHPN(cfg))
			if err != nil {
				return 0, err
			}
			hosts, err := c.PlaceJob(h)
			if err != nil {
				return 0, err
			}
			// Appendix A compares the planes under the stock NCCL stack:
			// blind multi-path on both sides.
			ccfg := c.CollectiveConfig()
			ccfg.Policy = collective.PolicyBlind
			g, err := collective.NewGroup(c.Net, ccfg, hosts, 8)
			if err != nil {
				return 0, err
			}
			res, err := g.AllReduce(size)
			if err != nil {
				return 0, err
			}
			return res.BusBW, nil
		}
		single, err := run(false)
		if err != nil {
			return nil, err
		}
		dual, err := run(true)
		if err != nil {
			return nil, err
		}
		gain := dual/single - 1
		minGain = math.Min(minGain, gain)
		rows = append(rows, []string{fmtF(float64(h * 8)), fmtF(single / 1e9), fmtF(dual / 1e9), pct(gain)})
	}
	r.AddTable(Table{
		Title:  "AllReduce busbw (GB/s), GPUs split across two segments",
		Header: []string{"n GPUs", "single-plane", "dual-plane", "gain"},
		Rows:   rows,
	})
	r.AddClaim("dual-plane AllReduce gain", "+50.1%..+63.7%", fmt.Sprintf(">= %s at every scale", pct(minGain)),
		minGain > 0.25)
	return r, nil
}
