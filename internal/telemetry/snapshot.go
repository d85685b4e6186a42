package telemetry

import "sort"

// This file is the metrics side of iteration memoization (internal/memo):
// a recorder snapshots the registry at the edges of a recorded window and
// replays the counter/histogram movement as a delta, so memoized runs keep
// the same cumulative metrics as re-simulated ones. Gauges are excluded —
// they read live simulator state, which the replay restores directly.

// MetricsSnapshot is a point-in-time copy of every counter and histogram
// in a registry.
type MetricsSnapshot struct {
	counters map[string]float64
	hists    map[string]histState
}

type histState struct {
	counts []uint64
	sum    float64
	n      uint64
}

// SnapshotMetrics copies the current value of every registered counter and
// histogram. Nil-safe (returns an empty snapshot).
func (r *Registry) SnapshotMetrics() *MetricsSnapshot {
	s := &MetricsSnapshot{counters: map[string]float64{}, hists: map[string]histState{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	cs := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		cs[n] = c
	}
	hs := make(map[string]*Histogram, len(r.histograms))
	for n, h := range r.histograms {
		hs[n] = h
	}
	r.mu.Unlock()
	// Values are read outside the registry lock: Counter/Histogram carry
	// their own locks, and map fill order is irrelevant here.
	for n, c := range cs {
		s.counters[n] = c.Value()
	}
	for n, h := range hs {
		_, counts, sum, cnt := h.snapshot()
		s.hists[n] = histState{counts: counts, sum: sum, n: cnt}
	}
	return s
}

// MetricsDelta is the movement between two snapshots, held in sorted name
// order so applying it is deterministic.
type MetricsDelta struct {
	counters []counterDelta
	hists    []histDelta
}

type counterDelta struct {
	name string
	d    float64
}

type histDelta struct {
	name   string
	counts []uint64
	sum    float64
	n      uint64
}

// sortedKeys returns a map's keys in sorted order — deltas are built and
// applied name-ordered so memoized metric replay is deterministic.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// DeltaSince returns the movement from base to s (s minus base). Metrics
// absent from base count from zero; zero-movement metrics are elided.
func (s *MetricsSnapshot) DeltaSince(base *MetricsSnapshot) *MetricsDelta {
	d := &MetricsDelta{}
	for _, name := range sortedKeys(s.counters) {
		// Exact comparison on purpose: "moved at all" is the question, and
		// a replayed window must re-apply the bit-exact recorded movement.
		if dv := s.counters[name] - base.counters[name]; dv != 0 { //hpnlint:allow floateq -- zero-movement elision must be exact
			d.counters = append(d.counters, counterDelta{name: name, d: dv})
		}
	}
	for _, name := range sortedKeys(s.hists) {
		h := s.hists[name]
		b := base.hists[name]
		if h.n == b.n && h.sum == b.sum { //hpnlint:allow floateq -- zero-movement elision must be exact
			continue
		}
		hd := histDelta{name: name, sum: h.sum - b.sum, n: h.n - b.n,
			counts: make([]uint64, len(h.counts))}
		for i := range h.counts {
			var bv uint64
			if i < len(b.counts) {
				bv = b.counts[i]
			}
			hd.counts[i] = h.counts[i] - bv
		}
		d.hists = append(d.hists, hd)
	}
	return d
}

// MergeDeltas sums any number of deltas into one (union by name).
func MergeDeltas(deltas ...*MetricsDelta) *MetricsDelta {
	cs := map[string]float64{}
	hs := map[string]histDelta{}
	for _, d := range deltas {
		if d == nil {
			continue
		}
		for _, c := range d.counters {
			cs[c.name] += c.d
		}
		for _, h := range d.hists {
			cur, ok := hs[h.name]
			if !ok {
				cur = histDelta{name: h.name, counts: make([]uint64, len(h.counts))}
			}
			for i, v := range h.counts {
				if i < len(cur.counts) {
					cur.counts[i] += v
				} else {
					cur.counts = append(cur.counts, v)
				}
			}
			cur.sum += h.sum
			cur.n += h.n
			hs[h.name] = cur
		}
	}
	out := &MetricsDelta{}
	for _, name := range sortedKeys(cs) {
		out.counters = append(out.counters, counterDelta{name: name, d: cs[name]})
	}
	for _, name := range sortedKeys(hs) {
		out.hists = append(out.hists, hs[name])
	}
	return out
}

// Exclude drops the named counters from the delta in place. The memo
// recorder uses it for metrics a fabric-stream subscriber owns and
// re-increments while replayed events are re-delivered (see memo's
// LiveMetricsOwner): leaving them in the delta would double-count every
// replayed window.
func (d *MetricsDelta) Exclude(names []string) {
	if d == nil || len(names) == 0 {
		return
	}
	kept := d.counters[:0]
	for _, c := range d.counters {
		drop := false
		for _, n := range names {
			if c.name == n {
				drop = true
				break
			}
		}
		if !drop {
			kept = append(kept, c)
		}
	}
	d.counters = kept
}

// ApplyMetricsDelta adds the delta into the registry's counters and
// histograms, in sorted name order. Metrics that no longer exist are
// skipped (a recorded window only ever references metrics the same run
// registered, so this is a belt-and-braces guard). Nil-safe.
func (r *Registry) ApplyMetricsDelta(d *MetricsDelta) {
	if r == nil || d == nil {
		return
	}
	for _, c := range d.counters {
		r.mu.Lock()
		ctr := r.counters[c.name]
		r.mu.Unlock()
		ctr.Add(c.d)
	}
	for _, h := range d.hists {
		r.mu.Lock()
		hist := r.histograms[h.name]
		r.mu.Unlock()
		hist.addDelta(h.counts, h.sum, h.n)
	}
}

// Absorb folds every counter and histogram of src into r, creating
// metrics that don't exist yet (same name, help and bucket bounds). The
// sharded runner calls it once per shard registry after the engines drain,
// in shard order on one goroutine, so suffix-summing readers (MetricSum,
// the Prometheus/JSON exports) see the whole ensemble through the base
// registry. Gauges are not absorbed: they are live views of per-shard
// state and remain readable through each shard hub's own artifacts.
func (r *Registry) Absorb(src *Registry) {
	if r == nil || src == nil {
		return
	}
	src.mu.Lock()
	cs := make(map[string]*Counter, len(src.counters))
	for n, c := range src.counters {
		cs[n] = c
	}
	hs := make(map[string]*Histogram, len(src.histograms))
	for n, h := range src.histograms {
		hs[n] = h
	}
	src.mu.Unlock()
	for _, name := range sortedKeys(cs) {
		c := cs[name]
		if v := c.Value(); v != 0 { //hpnlint:allow floateq -- zero-valued counters are elided exactly, like DeltaSince
			r.Counter(name, c.help).Add(v)
		}
	}
	for _, name := range sortedKeys(hs) {
		h := hs[name]
		bounds, counts, sum, n := h.snapshot()
		if n == 0 {
			continue
		}
		r.Histogram(name, h.help, bounds).addDelta(counts, sum, n)
	}
}

// addDelta folds a recorded movement into the histogram. Nil-safe.
func (h *Histogram) addDelta(counts []uint64, sum float64, n uint64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	for i, v := range counts {
		if i < len(h.counts) {
			h.counts[i] += v
		}
	}
	h.sum += sum
	h.n += n
	h.mu.Unlock()
}
