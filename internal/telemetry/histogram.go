package telemetry

import (
	"sort"
	"strconv"
	"sync"
)

// Histogram is a fixed-bucket distribution metric. Bucket upper bounds are
// set at registration (log-spaced via LogBuckets, typically) and never
// change, so observation is O(log buckets) and export is deterministic.
// Like Counter, all methods are safe on a nil receiver: layers hold nil
// histograms while telemetry is disabled and pay one nil check per
// observation.
type Histogram struct {
	name, help string
	bounds     []float64 // ascending upper bounds; implicit +Inf overflow

	mu     sync.Mutex
	counts []uint64 // len(bounds)+1; counts[len(bounds)] is the overflow
	sum    float64
	n      uint64
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	// First bound >= v: Prometheus `le` semantics (upper-inclusive).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// snapshot returns the bounds plus a consistent copy of the counts/sum.
func (h *Histogram) snapshot() (bounds []float64, counts []uint64, sum float64, n uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bounds, append([]uint64(nil), h.counts...), h.sum, h.n
}

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
// first use with the given bucket bounds (the first registration's help
// and bounds win). A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.histograms[name] = h
	return h
}

// histSnapshot returns every registered histogram sorted by name.
func (r *Registry) histSnapshot() []*Histogram {
	r.mu.Lock()
	hs := make([]*Histogram, 0, len(r.histograms))
	for _, h := range r.histograms {
		hs = append(hs, h)
	}
	r.mu.Unlock()
	sort.Slice(hs, func(i, j int) bool { return hs[i].name < hs[j].name })
	return hs
}

// histRows flattens every histogram into metric rows with cumulative
// bucket counts, for the flat JSON export (the Prometheus export renders
// histograms natively instead).
func (r *Registry) histRows() []metricRow {
	var rows []metricRow
	for _, h := range r.histSnapshot() {
		bounds, counts, sum, n := h.snapshot()
		cum := uint64(0)
		for i, b := range bounds {
			cum += counts[i]
			rows = append(rows, metricRow{
				name: h.name + "_bucket_le_" + strconv.FormatFloat(b, 'g', -1, 64),
				v:    float64(cum),
			})
		}
		rows = append(rows,
			metricRow{name: h.name + "_sum", v: sum},
			metricRow{name: h.name + "_count", v: float64(n)})
	}
	return rows
}
