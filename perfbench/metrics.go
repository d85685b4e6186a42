package main

import (
	"math"
	"sort"
)

// metricDef is one reported metric. End-to-end metrics carry the bound by
// which a change may worsen their median before -compare calls it a
// regression; per-layer metrics come from the traced pass and carry none.
// BENCHMARK.json lists the same names, units and bounds.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd are the metrics a user of the simulator sees, reported as the
// median over reps for every workload. Times are host time in nominal
// seconds (see hostref.go); every simulated result is checked separately,
// bit for bit, by the fingerprint. A bound must hold the quartile spread of
// ten runs at ten seeds, and should be three times that spread: the bounds
// come from the calibration sets in runs/ (see README.md). setup_s, a
// millisecond or less, has the widest.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.15},
	{"total_s", "s", "lower", 0.15},
	{"flows_per_s", "flows/s", "higher", 0.15},
	{"allocs_per_flow", "objects/flow", "lower", 0.02},
	{"bytes_per_flow", "B/flow", "lower", 0.02},
	{"live_heap_mb", "MiB", "lower", 0.05},
}

// suiteOnly are end-to-end metrics the suite mode prints next to endToEnd
// but the single-workload JSON line leaves out: artifact_s is defined only
// on workloads that write artifacts, and the iteration times only on those
// that time at least minIterations; fail_frac is 0 on a healthy run (the
// JSON line reports it as failed/attempted); peak_rss_mb repeats too
// loosely across runs to carry a bound (peak RSS moves with when
// collections ran; live_heap_mb does not); raw_run_s is run_s before
// host-speed normalization, kept to show what the normalization removes.
var suiteOnly = []metricDef{
	{"artifact_s", "s", "lower", 0.15},
	{"iter_ms_p50", "ms", "lower", 0},
	{"iter_ms_tail", "ms", "lower", 0},
	{"peak_rss_mb", "MiB", "lower", 0},
	{"raw_run_s", "s", "lower", 0},
	{"fail_frac", "fraction", "lower", 0},
}

// perLayer are the traced pass's metrics. Self times that every workload
// exercises are seconds; the self time of a layer that only some workloads
// reach (merge wait, memo replay, shard windows, artifact writers) is a
// share of run_s or total_s, and counts are exact.
var perLayer = []metricDef{
	{"setup.topo_s", "s", "lower", 0},
	{"setup.cluster_s", "s", "lower", 0},
	{"setup.job_s", "s", "lower", 0},
	{"setup.allocs", "count", "lower", 0},
	{"sim.events", "count", "lower", 0},
	{"sim.run.self_s", "s", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.allocs_per_event", "objects/event", "lower", 0},
	{"sim.windows", "count", "lower", 0},
	{"sim.mailbox_posts", "count", "lower", 0},
	{"sim.window_sync.share", "fraction", "lower", 0},
	{"sim.shard_busy_frac", "fraction", "higher", 0},
	{"sim.shard_speedup", "x", "higher", 0},
	{"netsim.flows", "count", "higher", 0},
	{"netsim.recomputes", "count", "lower", 0},
	{"netsim.recompute.self_s", "s", "lower", 0},
	{"netsim.decompose_s", "s", "lower", 0},
	{"netsim.fill.self_s", "s", "lower", 0},
	{"netsim.merge_wait.share", "fraction", "lower", 0},
	{"netsim.heap_ops", "count", "lower", 0},
	{"netsim.us_per_recompute", "us", "lower", 0},
	{"netsim.recomputes_per_flow", "1/flow", "lower", 0},
	{"netsim.parallel_gain", "x", "higher", 0},
	{"netsim.reroutes", "count", "lower", 0},
	{"netsim.topology_events", "count", "lower", 0},
	{"memo.lookups", "count", "lower", 0},
	{"memo.replayed", "count", "higher", 0},
	{"memo.misses", "count", "lower", 0},
	{"memo.blocked", "count", "lower", 0},
	{"memo.invalidations", "count", "lower", 0},
	{"memo.replay_ratio", "fraction", "higher", 0},
	{"memo.lookup.share", "fraction", "lower", 0},
	{"memo.replay.share", "fraction", "lower", 0},
	{"memo.observer_share", "fraction", "lower", 0},
	{"telemetry.trace_events", "count", "lower", 0},
	{"telemetry.trace_dropped", "count", "lower", 0},
	{"inband.records", "count", "lower", 0},
	{"inband.dropped", "count", "lower", 0},
	{"health.incidents", "count", "lower", 0},
	{"artifact.bytes", "B", "lower", 0},
	{"artifact.share", "fraction", "lower", 0},
	{"artifact.trace_json.share", "fraction", "lower", 0},
	{"artifact.samples_csv.share", "fraction", "lower", 0},
	{"artifact.inband_tsv.share", "fraction", "lower", 0},
	{"artifact.inband_json.share", "fraction", "lower", 0},
	{"artifact.incidents_tsv.share", "fraction", "lower", 0},
	{"artifact.incidents_json.share", "fraction", "lower", 0},
	{"telemetry.run_overhead", "x", "lower", 0},
	{"iter_ms_p50", "ms", "lower", 0},
	{"iter_ms_tail", "ms", "lower", 0},
	{"bench.run.self.share", "fraction", "lower", 0},
	{"bench.trace_overhead", "x", "lower", 0},
}

// summary is the distribution of one metric over a run's reps: the
// reported value, the quartiles of the per-rep values, their count and the
// values themselves.
type summary struct {
	Unit string `json:"unit"`
	// Stat names the statistic Value holds: the median, except for
	// peak_rss_mb (the lowest rep) and iter_ms_tail (p99, p90, p75, or p50
	// when fewer than ten samples lie beyond p75).
	Stat   string    `json:"stat"`
	Value  float64   `json:"value"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// summarize computes median and quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spread printed here is the spread a reader recomputes from the values.
func summarize(unit string, xs []float64) summary {
	s := summary{Unit: unit, Stat: "median", N: len(xs), Values: append([]float64(nil), xs...)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Value = quantile(sorted, 0.5)
	if len(sorted) < 2 {
		s.Q1, s.Q3 = s.Value, s.Value
		return s
	}
	s.Q1 = exclusiveQuantile(sorted, 1)
	s.Q3 = exclusiveQuantile(sorted, 3)
	return s
}

// exclusiveQuantile is statistics.quantiles(method="exclusive", n=4)[k-1]
// on sorted data with at least two points.
func exclusiveQuantile(sorted []float64, k int) float64 {
	n := len(sorted)
	m := n + 1
	j := k * m / 4
	if j < 1 {
		j = 1
	} else if j > n-1 {
		j = n - 1
	}
	delta := k*m - j*4
	return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
}

// quantile interpolates linearly between closest ranks of sorted data; at
// q=0.5 it is the median.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median of unsorted xs (0 when empty).
func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantile(sorted, 0.5)
}

// tail returns the highest of p99, p90 and p75 with at least ten samples
// beyond it, falling back to the median, and names the percentile used.
func tail(xs []float64) (float64, string) {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range []struct {
		q    float64
		name string
	}{{0.99, "p99"}, {0.90, "p90"}, {0.75, "p75"}} {
		if float64(len(sorted))*(1-p.q) >= 10 {
			return quantile(sorted, p.q), p.name
		}
	}
	return quantile(sorted, 0.5), "p50"
}
