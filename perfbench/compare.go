package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readLedger(path string) (ledger, error) {
	var l ledger
	b, err := os.ReadFile(path)
	if err != nil {
		return l, err
	}
	if err := json.Unmarshal(b, &l); err != nil {
		return l, fmt.Errorf("%s: %w", path, err)
	}
	if len(l.Workloads) == 0 {
		return l, fmt.Errorf("%s: no workloads", path)
	}
	return l, nil
}

// worseBy returns how much worse b is than a, as a share of a: positive
// when worse in the metric's direction.
func worseBy(d metricDef, a, b float64) float64 {
	delta := (b - a) / math.Abs(a)
	if d.better == "higher" {
		return -delta
	}
	return delta
}

// judge gives the verdict on one workload × metric: regressed when the
// new median is worse by more than the bound; unresolved when either run's
// quartile spread is wider than the bound and not every new run beats
// every old run; improved when the median moved further than the old
// run's own spread and nine tenths of the (old, new) run pairs favour the
// new one; unchanged otherwise.
func judge(d metricDef, o, n summary) (float64, string) {
	if o.N == 0 || n.N == 0 || o.Value == 0 { //hpnlint:allow floateq -- guards the division below
		return 0, "unresolved"
	}
	worse := worseBy(d, o.Value, n.Value)
	spread := math.Max(o.Q3-o.Q1, n.Q3-n.Q1) / math.Abs(o.Value)
	wins, losses, pairs := 0, 0, 0
	for _, ov := range o.Values {
		for _, nv := range n.Values {
			pairs++
			switch w := worseBy(d, ov, nv); {
			case w < 0:
				wins++
			case w > 0:
				losses++
			}
		}
	}
	switch {
	case worse > d.bound && pairs > 0 && losses == pairs:
		return worse, "regressed"
	case spread > d.bound && (pairs == 0 || wins < pairs):
		return worse, "unresolved"
	case worse > d.bound:
		return worse, "regressed"
	case -worse > (o.Q3-o.Q1)/math.Abs(o.Value) && pairs > 0 && float64(wins) >= 0.9*float64(pairs):
		return worse, "improved"
	}
	return worse, "unchanged"
}

// compareLedgers prints, for every workload in both runs, each metric's
// old and new value, how much worse the new one is (negative: better), the
// bound and the verdict, and whether the simulated outcome is identical. It returns the number of regressions,
// counting an increase of fail_frac as one.
func compareLedgers(o, n ledger, out io.Writer) int {
	regressions := 0
	old := map[string]workloadRun{}
	for _, w := range o.Workloads {
		old[w.Name] = w
	}
	defs := append(append([]metricDef(nil), endToEnd...), suiteOnly...)
	if o.Traced || n.Traced {
		defs = perLayer
	}
	fmt.Fprintf(out, "%-16s %-26s %14s %14s %8s %6s  %s\n", "workload", "metric", "old", "new", "worse by", "bound", "verdict")
	for _, nw := range n.Workloads {
		ow, ok := old[nw.Name]
		if !ok {
			fmt.Fprintf(out, "%-16s only in the new run\n", nw.Name)
			continue
		}
		for _, d := range defs {
			olds, ook := ow.Metrics[d.name]
			news, nok := nw.Metrics[d.name]
			if !ook || !nok {
				continue
			}
			verdict := "-"
			var change float64
			switch {
			case d.name == "fail_frac":
				change = news.Value - olds.Value
				verdict = "unchanged"
				if news.Value > olds.Value {
					verdict = "regressed"
				}
			case d.bound > 0:
				change, verdict = judge(d, olds, news)
			case d.unit == "count":
				if olds.Value != news.Value { //hpnlint:allow floateq -- counts are exact integers
					verdict = "changed"
				} else {
					verdict = "identical"
				}
			case olds.Value != 0: //hpnlint:allow floateq -- guards the division below
				change = worseBy(d, olds.Value, news.Value)
			}
			if verdict == "regressed" {
				regressions++
			}
			bound := "-"
			if d.bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*d.bound)
			}
			fmt.Fprintf(out, "%-16s %-26s %14.6g %14.6g %+7.1f%% %6s  %s\n",
				nw.Name, d.name, olds.Value, news.Value, 100*change, bound, verdict)
		}
		same := "identical"
		if ow.Fingerprint.key() != nw.Fingerprint.key() {
			same = "CHANGED"
		}
		fmt.Fprintf(out, "%-16s simulated outcome %s\n", nw.Name, same)
	}
	return regressions
}
