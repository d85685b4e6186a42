package hpn

import (
	"fmt"
	"math"

	"hpn/internal/collective"
	"hpn/internal/dualtor"
	"hpn/internal/failure"
	"hpn/internal/metrics"
	"hpn/internal/thermal"
	"hpn/internal/topo"
	"hpn/internal/workload"
)

func init() {
	register("fig1", "Traditional cloud computing traffic pattern", runFig1)
	register("fig3", "Number of connections per host (CDF)", runFig3)
	register("fig4", "Checkpoint intervals of representative LLM jobs", runFig4)
	register("fig5", "Monthly link failure ratio", runFig5)
	register("fig6", "GPUs used by production training jobs (CDF)", runFig6)
	register("fig9", "51.2T single-chip power and cooling", runFig9)
	register("tab1", "Complexity of path selection", runTab1)
	register("tab2", "Key mechanisms affecting maximal scale", runTab2)
	register("tab3", "Traffic patterns of different parallelisms", runTab3)
	register("tab4", "Any-to-any tier2 vs rail-only tier2", runTab4)
	register("fig20", "DCN+ topology inventory (Appendix C)", runFig20)
	register("sec42", "Stacked vs non-stacked dual-ToR reliability", runSec42)
}

func runFig1(Env) (*Report, error) {
	r := &Report{ID: "fig1", Title: "Traditional cloud computing traffic pattern"}
	pts := workload.CloudTraffic(1)
	in := &metrics.Series{Name: "traffic-in-gbps"}
	conns := &metrics.Series{Name: "connections"}
	maxIn, maxConn := 0.0, 0.0
	for _, p := range pts {
		in.Add(p.Hour, p.InGbps)
		conns.Add(p.Hour, p.Connections)
		maxIn = math.Max(maxIn, p.InGbps)
		maxConn = math.Max(maxConn, p.Connections)
	}
	r.Series = append(r.Series, in, conns)
	r.AddTable(Table{
		Title:  "24h summary (5-min samples)",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"mean traffic-in (Gbps)", fmtF(in.Mean())},
			{"peak traffic-in (Gbps)", fmtF(maxIn)},
			{"peak connections", fmtF(maxConn)},
			{"NIC utilization at peak", pct(maxIn / 25)},
		},
	})
	r.AddClaim("utilization stays below 20% of NIC", "<20%", pct(maxIn/25), maxIn/25 < 0.2)
	r.AddClaim("connections are O(100K)", "~100-200K", fmtF(maxConn), maxConn > 1e5 && maxConn < 3e5)
	hourly := in.Downsample(1.0)
	swing := (hourly.Max() - hourly.Min()) / hourly.Max()
	r.AddClaim("traffic changes slowly (hourly swing, not bursts)", "smooth diurnal", pct(swing), swing < 0.8)
	return r, nil
}

func runFig3(Env) (*Report, error) {
	r := &Report{ID: "fig3", Title: "Connections per host (LLM training)"}
	d := workload.ConnectionsPerHost(5000, 2)
	rows := [][]string{}
	for _, p := range []float64{1, 25, 50, 75, 99} {
		rows = append(rows, []string{fmt.Sprintf("P%.0f", p), fmtF(d.Percentile(p))})
	}
	r.AddTable(Table{Title: "connections per host", Header: []string{"percentile", "connections"}, Rows: rows})
	lo, hi := d.Percentile(1), d.Percentile(99)
	r.AddClaim("a few dozen to hundreds of connections", "10^1..10^3", fmt.Sprintf("%.0f..%.0f", lo, hi),
		lo >= 10 && hi <= 1000)
	return r, nil
}

func runFig4(Env) (*Report, error) {
	r := &Report{ID: "fig4", Title: "Checkpoint intervals of representative LLM jobs"}
	hours := workload.Figure4Intervals()
	rows := [][]string{}
	ok := true
	for i, h := range hours {
		rows = append(rows, []string{fmt.Sprintf("LLM%d", i+1), fmtF(h)})
		if h < 2 || h > 4.2 {
			ok = false
		}
	}
	r.AddTable(Table{Title: "checkpoint interval (hours)", Header: []string{"job", "hours"}, Rows: rows})
	r.AddClaim("intervals range 2-4 hours", "2-4h", fmt.Sprintf("%.1f-%.1fh", hours[0], hours[len(hours)-1]), ok)
	cm := workload.DefaultCheckpointModel()
	overhead := cm.SaveSeconds / cm.IntervalSeconds()
	r.AddClaim("checkpoint overhead ~5%", "~5%", pct(overhead), overhead > 0.03 && overhead < 0.07)
	cost := workload.RollbackCostDollars(3, 20000)
	r.AddClaim("crash cost for a 3K-GPU job", "~$30K", fmt.Sprintf("$%.0f", cost), cost > 20000 && cost < 40000)
	return r, nil
}

func runFig5(Env) (*Report, error) {
	r := &Report{ID: "fig5", Title: "Monthly link failure ratio"}
	s := failure.MonthlyLinkFailureRatios(12, 5)
	rows := [][]string{}
	for _, p := range s.Points {
		rows = append(rows, []string{fmt.Sprintf("month %02.0f", p.T+1), pct(p.V)})
	}
	r.AddTable(Table{Title: "link failure ratio by month", Header: []string{"month", "ratio"}, Rows: rows})
	r.Series = append(r.Series, s)
	mean := s.Mean()
	r.AddClaim("mean monthly link failure ratio", "~0.057%", pct(mean), mean > 0.0003 && mean < 0.0009)
	crashes := failure.CrashesPerMonth(384, failure.ProductionRates())
	r.AddClaim("fabric-fault interruptions for a 3K-GPU job", "1-2 per month", fmtF(crashes),
		crashes >= 1 && crashes <= 3)
	return r, nil
}

func runFig6(Env) (*Report, error) {
	r := &Report{ID: "fig6", Title: "GPUs used in production training jobs"}
	d := workload.JobSizeDist(20000, 11)
	rows := [][]string{}
	for _, x := range []float64{64, 256, 1024, 2048, 3000} {
		rows = append(rows, []string{fmtF(x), pct(d.CDFAt(x))})
	}
	r.AddTable(Table{Title: "job-size CDF", Header: []string{"#GPUs", "CDF"}, Rows: rows})
	at1k := d.CDFAt(1024)
	r.AddClaim("jobs within one 1K-GPU segment", "96.3%", pct(at1k), at1k > 0.94 && at1k < 0.99)
	r.AddClaim("largest job below 3K GPUs", "<3K", fmtF(d.Percentile(100)), d.Percentile(100) < 3000)
	r.AddClaim("a 15K pod covers all jobs", "100%", pct(d.CDFAt(15360)), d.CDFAt(15360) >= 1)
	return r, nil
}

func runFig9(Env) (*Report, error) {
	r := &Report{ID: "fig9", Title: "51.2T single-chip power and cooling"}
	rows := [][]string{}
	for _, c := range []float64{3.2, 6.4, 12.8, 25.6, 51.2} {
		rows = append(rows, []string{fmt.Sprintf("%.1fT", c), fmtF(thermal.ChipPowerWatts(c))})
	}
	r.AddTable(Table{Title: "Fig 9a: power by chip capacity", Header: []string{"capacity", "watts"}, Rows: rows})

	var rows9b [][]string
	var optOK, othersFail = false, true
	for _, row := range thermal.Figure9b() {
		rows9b = append(rows9b, []string{
			row.Solution, fmtF(row.AllowedPowerW), fmtF(row.ChipPowerW), fmt.Sprintf("%v", row.Sustains),
		})
		if row.Solution == "Optimized VC" {
			optOK = row.Sustains
		} else if row.Sustains {
			othersFail = false
		}
	}
	r.AddTable(Table{Title: "Fig 9b: cooling solutions vs 51.2T power",
		Header: []string{"solution", "allowed W", "chip W", "sustains"}, Rows: rows9b})
	step := thermal.ChipPowerWatts(51.2)/thermal.ChipPowerWatts(25.6) - 1
	r.AddClaim("power step 25.6T -> 51.2T", "+45%", pct(step), math.Abs(step-0.45) < 0.01)
	r.AddClaim("only the optimized VC sustains full power", "optimized VC only", fmt.Sprintf("%v", optOK && othersFail), optOK && othersFail)
	sols := thermal.Solutions()
	gain := sols[1].ThetaJA/sols[2].ThetaJA - 1
	r.AddClaim("optimized VC cooling-efficiency gain", "+15%", pct(gain), math.Abs(gain-0.15) < 0.01)
	return r, nil
}

func runTab1(env Env) (*Report, error) {
	r := &Report{ID: "tab1", Title: "Complexity of path selection"}
	rows := [][]string{}
	var hpnSpace int
	minRatio := math.Inf(1)
	for _, row := range topo.Table1() {
		rows = append(rows, []string{row.Arch, fmtF(float64(row.GPUs)), fmtF(float64(row.Tiers)),
			row.Participating, fmt.Sprintf("O(%d)", row.SearchSpace)})
		if row.Arch == "Pod in HPN" {
			hpnSpace = row.SearchSpace
		} else if hpnSpace > 0 {
			minRatio = math.Min(minRatio, float64(row.SearchSpace)/float64(hpnSpace))
		}
	}
	r.AddTable(Table{Title: "Table 1", Header: []string{"arch", "#GPUs", "tiers", "LB switches", "search space"}, Rows: rows})
	r.AddClaim("HPN search space", "O(60)", fmt.Sprintf("O(%d)", hpnSpace), hpnSpace == 60)
	r.AddClaim("reduction vs 3-tier fabrics", "1-2 orders of magnitude",
		fmt.Sprintf("%.0fx-...", minRatio), minRatio >= 10)

	// Measured counterpart on built fabrics.
	hpnC, err := env.join(NewHPN(func() HPNConfig { c := DefaultHPN(); c.SegmentsPerPod = 2; return c }()))
	if err != nil {
		return nil, err
	}
	dcnC, err := env.join(NewDCN(SmallDCN(1)))
	if err != nil {
		return nil, err
	}
	mh, md := hpnC.PathSearchSpace(0, 0), dcnC.PathSearchSpace(0, 0)
	r.AddTable(Table{Title: "measured on built fabrics", Header: []string{"arch", "search space"},
		Rows: [][]string{{"HPN", fmtF(float64(mh))}, {"DCN+", fmtF(float64(md))}}})
	r.AddClaim("measured HPN search space matches design", "60", fmtF(float64(mh)), mh == 60)
	return r, nil
}

func runTab2(env Env) (*Report, error) {
	r := &Report{ID: "tab2", Title: "Key mechanisms affecting maximal scale"}
	rows := [][]string{}
	var last topo.ScaleRow
	for _, row := range topo.Table2() {
		rows = append(rows, []string{row.Mechanism, fmtF(float64(row.Tier1GPUs)), fmtF(float64(row.Tier2GPUs))})
		last = row
	}
	r.AddTable(Table{Title: "Table 2 (cumulative)", Header: []string{"mechanism", "tier1 scale", "tier2 scale"}, Rows: rows})
	r.AddClaim("tier1 reaches 1K GPUs per segment", "1K", fmtF(float64(last.Tier1GPUs)), last.Tier1GPUs == 1024)
	r.AddClaim("tier2 reaches 15K GPUs per pod", "15K", fmtF(float64(last.Tier2GPUs)), last.Tier2GPUs == 15360)
	cfg := DefaultHPN()
	r.AddClaim("ToR oversubscription", "1.067:1", fmt.Sprintf("%.3f:1", topo.OversubscriptionToR(cfg)),
		math.Abs(topo.OversubscriptionToR(cfg)-1.067) < 0.01)
	r.AddClaim("Agg-Core oversubscription", "15:1", fmt.Sprintf("%.0f:1", topo.OversubscriptionAggCore(cfg)),
		math.Abs(topo.OversubscriptionAggCore(cfg)-15) < 1e-9)

	// Cross-check against an actually-built pod.
	built, err := env.join(NewHPN(cfg))
	if err != nil {
		return nil, err
	}
	got := built.Topo.TotalGPUs(true)
	r.AddClaim("built pod active GPUs", "15360", fmtF(float64(got)), got == 15360)
	return r, nil
}

func runTab3(Env) (*Report, error) {
	r := &Report{ID: "tab3", Title: "Traffic patterns of different parallelisms (GPT-3 175B, TP=8 PP=8 DP=512)"}
	rows := [][]string{}
	vols := map[string]float64{}
	for _, row := range workload.Table3() {
		rows = append(rows, []string{row.Strategy, metrics.HumanBytes(row.Bytes), row.Operation})
		vols[row.Strategy] = row.Bytes
	}
	r.AddTable(Table{Title: "Table 3", Header: []string{"strategy", "volume", "operations"}, Rows: rows})
	r.AddClaim("DP volume", "5.5GB", metrics.HumanBytes(vols["DP"]), math.Abs(vols["DP"]-5.5e9)/5.5e9 < 0.02)
	r.AddClaim("PP volume", "6MB", metrics.HumanBytes(vols["PP"]), math.Abs(vols["PP"]-6e6)/6e6 < 0.1)
	r.AddClaim("TP volume", "560MB", metrics.HumanBytes(vols["TP"]), math.Abs(vols["TP"]-560e6)/560e6 < 0.02)
	r.AddClaim("PP is the lightest (safe to cross pods, §7)", "PP << TP << DP",
		fmt.Sprintf("%v < %v < %v", metrics.HumanBytes(vols["PP"]), metrics.HumanBytes(vols["TP"]), metrics.HumanBytes(vols["DP"])),
		vols["PP"] < vols["TP"] && vols["TP"] < vols["DP"])
	return r, nil
}

func runTab4(env Env) (*Report, error) {
	r := &Report{ID: "tab4", Title: "Any-to-any tier2 vs rail-only tier2"}
	rows := [][]string{}
	designs := topo.Table4()
	for _, d := range designs {
		rows = append(rows, []string{d.Name, fmtF(float64(d.Tier2Planes)), fmtF(float64(d.GPUsPerPod)), d.CommLimits})
	}
	r.AddTable(Table{Title: "Table 4", Header: []string{"design", "tier2 planes", "GPUs per pod", "comm limits"}, Rows: rows})
	r.AddClaim("any-to-any pod scale", "15360", fmtF(float64(designs[0].GPUsPerPod)), designs[0].GPUsPerPod == 15360)
	r.AddClaim("rail-only pod scale", "122880", fmtF(float64(designs[1].GPUsPerPod)), designs[1].GPUsPerPod == 122880)
	r.AddClaim("rail-only plane count", "16", fmtF(float64(designs[1].Tier2Planes)), designs[1].Tier2Planes == 16)

	// Demonstrate the communication limitation on built fabrics: an
	// MoE-style all-to-all (cross-rail by nature) completes on the
	// any-to-any tier2 but has unreachable shards on the rail-only tier2,
	// while rail-aligned AllReduce works on both (§10, "the evolution of
	// new models would break this assumption").
	runA2A := func(railOnly bool) (unreachable, sent int, allReduceOK bool, err error) {
		cfg := topo.SmallHPN(2, 4, 2)
		cfg.RailOnlyTier2 = railOnly
		c, err := env.join(NewHPN(cfg))
		if err != nil {
			return 0, 0, false, err
		}
		hosts, err := c.PlaceJob(8)
		if err != nil {
			return 0, 0, false, err
		}
		g, err := collective.NewGroup(c.Net, c.CollectiveConfig(), hosts, 8)
		if err != nil {
			return 0, 0, false, err
		}
		ar, err := g.AllReduce(16 << 20)
		if err != nil {
			return 0, 0, false, err
		}
		res, err := g.AllToAll(16 << 20)
		if err != nil {
			return 0, 0, false, err
		}
		return res.FlowsUnreachable, res.FlowsSent, ar.BusBW > 0, nil
	}
	a2aUn, a2aSent, a2aAR, err := runA2A(false)
	if err != nil {
		return nil, err
	}
	roUn, roSent, roAR, err := runA2A(true)
	if err != nil {
		return nil, err
	}
	r.AddTable(Table{
		Title:  "MoE all-to-all on built fabrics (64 GPUs)",
		Header: []string{"tier2 design", "shards delivered", "shards unreachable", "rail-aligned AllReduce"},
		Rows: [][]string{
			{"any-to-any", fmtF(float64(a2aSent)), fmtF(float64(a2aUn)), okStr(a2aAR)},
			{"rail-only", fmtF(float64(roSent)), fmtF(float64(roUn)), okStr(roAR)},
		},
	})
	r.AddClaim("any-to-any carries all-to-all", "none unreachable", fmtF(float64(a2aUn)), a2aUn == 0)
	r.AddClaim("rail-only breaks cross-rail traffic", "rail-only limitation",
		fmt.Sprintf("%d/%d shards unreachable", roUn, roUn+roSent), roUn > 0)
	r.AddClaim("rail-only still serves rail-aligned collectives", "works", okStr(roAR), roAR)
	return r, nil
}

func okStr(ok bool) string {
	if ok {
		return "ok"
	}
	return "broken"
}

func runFig20(Env) (*Report, error) {
	r := &Report{ID: "fig20", Title: "DCN+ topology (Appendix C)"}
	t, err := topo.BuildDCN(DefaultDCN())
	if err != nil {
		return nil, err
	}
	if errs := t.Validate(); len(errs) > 0 {
		return nil, fmt.Errorf("DCN+ wiring invalid: %v", errs[0])
	}
	c := t.Count()
	r.AddTable(Table{Title: "inventory", Header: []string{"item", "count"}, Rows: [][]string{
		{"pods", fmtF(float64(t.Pods))},
		{"hosts", fmtF(float64(c.Hosts))},
		{"GPUs", fmtF(float64(c.GPUs))},
		{"ToRs", fmtF(float64(c.ToRs))},
		{"Aggs", fmtF(float64(c.Aggs))},
		{"Cores", fmtF(float64(c.Cores))},
	}})
	r.AddClaim("segment = 128 GPUs", "128", fmtF(float64(c.GPUs/(t.Pods*4))), c.GPUs/(t.Pods*4) == 128)
	r.AddClaim("pod = 512 GPUs (4 segments)", "512", fmtF(float64(c.GPUs/t.Pods)), c.GPUs/t.Pods == 512)
	r.AddClaim("cluster max", "16384 GPUs", fmtF(float64(c.GPUs)), c.GPUs == 16384)
	return r, nil
}

func runSec42(Env) (*Report, error) {
	r := &Report{ID: "sec42", Title: "Stacked vs non-stacked dual-ToR reliability (Monte Carlo)"}
	p := dualtor.DefaultReliabilityParams()
	rows := [][]string{}
	var stacked, nonstacked, single dualtor.ReliabilityReport
	for _, d := range []dualtor.Design{dualtor.SingleToR, dualtor.StackedDualToR, dualtor.NonStackedDualToR} {
		rep := dualtor.SimulateReliability(d, p)
		rows = append(rows, []string{d.String(), fmtF(float64(rep.Outages)), fmtF(float64(rep.Degraded)),
			fmt.Sprintf("%.3f", rep.OutagesPerKRackMon)})
		switch d {
		case dualtor.SingleToR:
			single = rep
		case dualtor.StackedDualToR:
			stacked = rep
		case dualtor.NonStackedDualToR:
			nonstacked = rep
		}
	}
	r.AddTable(Table{
		Title:  fmt.Sprintf("%d racks x %d months", p.Racks, p.Months),
		Header: []string{"design", "rack outages", "degraded events", "outages/1K rack-months"},
		Rows:   rows,
	})
	r.AddClaim("stack issues dominate stacked critical failures", ">40%",
		pct(stacked.StackShareOfCrit), stacked.StackShareOfCrit > 0.40)
	r.AddClaim("non-stacked eliminates rack outages", "0 observed (8 months)",
		fmtF(float64(nonstacked.Outages)), nonstacked.Outages == 0)
	r.AddClaim("single-ToR suffers outages both designs avoid", ">0",
		fmtF(float64(single.Outages)), single.Outages > 0)

	// The LACP disguise (§4.2) itself.
	bond, err := dualtor.NegotiateNonStacked(dualtor.NonStackedConfigs(), 42)
	if err != nil {
		return nil, err
	}
	r.AddClaim("non-stacked LACP negotiates one virtual device",
		"reserved MAC 00:00:5e:00:01:01, distinct portIDs",
		fmt.Sprintf("%v members %v", bond.SysID, bond.Members),
		bond.SysID == dualtor.ReservedSysMAC && len(bond.Members) == 2)
	return r, nil
}
