package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// Every workload at smoke-test size repeats its simulated outcome bit for
// bit over the minimum number of reps, and the single-workload line emits
// every end-to-end metric with its unit.
func TestTinyRepsAgree(t *testing.T) {
	for _, w := range workloads {
		wr := measure(inProcess, w, defaultSeed, 0, true)
		if wr.Failed != 0 || wr.Attempted < minReps {
			t.Errorf("%s: %d of %d reps failed: %v", w.name, wr.Failed, wr.Attempted, wr.Problems)
		}
		checkLine(t, w.name, endToEndLine(wr), endToEnd)
	}
}

// The traced pass reproduces the untraced outcome, passes its mode-pair
// checks, and emits every per-layer metric with its unit.
func TestTracedPass(t *testing.T) {
	run := withHostRef(inProcess)
	for _, w := range workloads {
		wr := tracePass(run, w, defaultSeed, 0, 1, true)
		for _, p := range wr.Problems {
			t.Errorf("%s: %s", w.name, p)
		}
		checkLine(t, w.name, perLayerLine(wr), perLayer)
	}
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json and the benchmark name the same workloads, and the same
// metrics with the same units, directions and bounds.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("workload %s is not in the benchmark", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the benchmark %d and %d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound { //hpnlint:allow floateq -- both sides are the same literal
			t.Errorf("end_to_end[%d] = %+v, the benchmark has %+v", i, m, d)
		}
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, the benchmark has %+v", i, m, d)
		}
	}
}

func checkLine(t *testing.T, workload string, line result, defs []metricDef) {
	t.Helper()
	if len(line.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", workload, len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := line.Metrics[d.name]
		if !ok || v.Unit != d.unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", workload, d.name, v, d.unit)
		}
	}
	if _, err := json.Marshal(line); err != nil {
		t.Errorf("%s: %v", workload, err)
	}
}

// -compare passes a run against itself and a run slower by half the
// bound, and fails a run slower by more than the bound on every rep, or
// one with more failed reps.
func TestCompareAppliesBounds(t *testing.T) {
	base := []float64{1.000, 1.004, 0.998, 1.002, 0.997, 1.001, 0.999}
	mk := func(factor, failFrac float64) ledger {
		vals := make([]float64, len(base))
		for i, v := range base {
			vals[i] = v * factor
		}
		m := map[string]summary{
			"run_s":     summarize("s", vals),
			"fail_frac": summarize("fraction", []float64{failFrac}),
		}
		return ledger{Workloads: []workloadRun{{Name: "contended", Metrics: m}}}
	}
	runS := endToEnd[1]
	if runS.name != "run_s" {
		t.Fatalf("endToEnd[1] is %s, want run_s", runS.name)
	}
	same := mk(1, 0)
	for _, c := range []struct {
		name        string
		next        ledger
		regressions int
	}{
		{"same data", same, 0},
		{"half the bound slower", mk(1+runS.bound/2, 0), 0},
		{"bound + 5 points slower", mk(1+runS.bound+0.05, 0), 1},
		{"10% faster", mk(0.9, 0), 0},
		{"a failed rep", mk(1, 0.1), 1},
	} {
		if n := compareLedgers(same, c.next, io.Discard); n != c.regressions {
			t.Errorf("%s (run_s bound %.0f%%): %d regressions, want %d", c.name, 100*runS.bound, n, c.regressions)
		}
	}
}

// The quartiles match Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	s := summarize("s", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.Q1 != 2.75 || s.Value != 5.5 || s.Q3 != 8.25 { //hpnlint:allow floateq -- exact binary fractions
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", s.Q1, s.Value, s.Q3)
	}
	s = summarize("s", []float64{3, 1, 2})
	if s.Q1 != 1 || s.Value != 2 || s.Q3 != 3 { //hpnlint:allow floateq -- exact values
		t.Errorf("quartiles %v %v %v, want 1 2 3", s.Q1, s.Value, s.Q3)
	}
}

// The two-word "-trace 0|1" form reads as the boolean flag.
func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "multipod", "--trace", "1", "--seconds", "5", "-trace", "0"})
	want := []string{"--workload", "multipod", "-trace=1", "--seconds", "5", "-trace=0"}
	if len(got) != len(want) {
		t.Fatalf("normalizeArgs = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("normalizeArgs = %q, want %q", got, want)
		}
	}
}
