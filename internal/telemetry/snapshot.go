package telemetry

// This file is the registry's integer state as one vector. Iteration
// memoization (internal/memo) takes Values at the edges of a recorded
// window and replays the window's metric movement as their difference, so
// memoized runs keep the same metrics as re-simulated ones, exactly. The
// sharded runner folds pod registries into the base one with Absorb.

// Values appends the state of every counter and histogram to dst in
// registration order — a counter's count; a histogram's bucket counts,
// then its observation count and nanosecond sum — and returns the
// extended slice. Registration only appends to the table, so a later
// vector extends an earlier one index for index: the difference of two is
// the movement between them, with a metric registered in between counting
// from zero. Func-backed counters and gauges hold no state of their own
// and are left out. Nil-safe.
func (r *Registry) Values(dst []uint64) []uint64 {
	if r == nil {
		return dst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.metrics {
		switch m.kind {
		case counterKind:
			dst = append(dst, m.counter.Value())
		case histogramKind:
			dst = m.hist.appendValues(dst)
		}
	}
	return dst
}

// AddValues adds d, a difference of two Values vectors, into the counters
// and histograms it covers, index by index, skipping the unmoved ones: a
// memo replay adds one per window. Metrics registered after its later
// vector was taken lie past its end and stay as they are. Nil-safe; it
// allocates nothing.
func (r *Registry) AddValues(d []uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < len(r.metrics) && len(d) > 0; i++ {
		switch m := r.metrics[i]; m.kind {
		case counterKind:
			if d[0] != 0 {
				m.counter.add(d[0])
			}
			d = d[1:]
		case histogramKind:
			d = m.hist.addValues(d)
		}
	}
}

// Absorb folds every counter (func-backed ones included) and histogram of
// src into r, creating metrics that don't exist yet (same name, help and
// bucket bounds) as plain counters and histograms, in name order. The
// sharded runner calls it once per shard registry after the engines drain,
// in shard order on one goroutine, so suffix-summing readers (MetricSum, the
// Prometheus/JSON exports) see the whole ensemble through the base
// registry. Gauges are not absorbed: they are live views of per-shard
// state and remain readable through each shard hub's own artifacts.
func (r *Registry) Absorb(src *Registry) {
	if r == nil || src == nil {
		return
	}
	ms := src.sorted()
	var vals []uint64
	for i := range ms {
		m := &ms[i]
		switch m.kind {
		case counterKind, countKind:
			if v := m.total(); v != 0 {
				r.Counter(m.name, m.help).add(v)
			}
		case histogramKind:
			vals = m.hist.appendValues(vals[:0])
			if n, _ := histTotals(vals); n != 0 {
				r.Histogram(m.name, m.help, m.hist.bounds).addValues(vals)
			}
		}
	}
}

// appendValues appends the histogram's slots of a Values vector: its
// bucket counts, then its observation count and nanosecond sum.
func (h *Histogram) appendValues(dst []uint64) []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	dst = append(dst, h.counts...)
	return append(dst, h.n, uint64(h.sumNS))
}

// histTotals returns the observation count and nanosecond sum that end a
// histogram's slots.
func histTotals(slots []uint64) (n uint64, sumNS int64) {
	return slots[len(slots)-2], int64(slots[len(slots)-1])
}

// addValues adds the histogram's slots at the head of d and returns the
// rest of d. Slots with no observation in them are all zero and skipped.
func (h *Histogram) addValues(d []uint64) []uint64 {
	n := len(h.counts)
	if d[n] != 0 {
		h.mu.Lock()
		for i := range h.counts {
			h.counts[i] += d[i]
		}
		h.n += d[n]
		h.sumNS += int64(d[n+1])
		h.mu.Unlock()
	}
	return d[n+2:]
}
