package telemetry

import (
	"sort"
	"sync"
)

// Histogram is a fixed-bucket distribution of durations. Observations are
// integer nanoseconds and the sum is kept in them, so it is exact; bucket
// upper bounds and the rendered `_sum` are seconds. Bounds are set at
// registration (log-spaced via LogBuckets, typically) and never change,
// so observation is O(log buckets) and export is deterministic. Like
// Counter, all methods are safe on a nil receiver: layers hold nil
// histograms while telemetry is disabled and pay one nil check per
// observation.
type Histogram struct {
	bounds []float64 // ascending upper bounds in seconds; implicit +Inf overflow

	mu     sync.Mutex
	counts []uint64 // len(bounds)+1; counts[len(bounds)] is the overflow
	n      uint64
	sumNS  int64
}

// Observe records one duration of ns nanoseconds. Nil-safe.
func (h *Histogram) Observe(ns int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	// First bound >= the value: Prometheus `le` semantics (upper-inclusive).
	h.counts[sort.SearchFloat64s(h.bounds, seconds(ns))]++
	h.n++
	h.sumNS += ns
	h.mu.Unlock()
}

// seconds converts nanoseconds to the seconds the exports show.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// LogBuckets returns n log-spaced bucket upper bounds: lo, lo*factor,
// lo*factor^2, ... It panics on a non-positive lo, a factor <= 1 or n < 1
// — bucket shapes are compile-time decisions, not runtime input.
func LogBuckets(lo, factor float64, n int) []float64 {
	if lo <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: LogBuckets needs lo > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	v := lo
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// Histogram returns the histogram registered under name, creating it on
// first use with the given bucket bounds in seconds (the first
// registration's help and bounds win). A nil registry returns a nil
// (no-op) histogram.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.find(name, histogramKind); m != nil {
		return m.hist
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	return r.add(metric{name: name, help: help, kind: histogramKind, hist: h}).hist
}
