// Package floatacc exercises the floatacc rule: float accumulation whose
// reduction order depends on map iteration, goroutine scheduling, or
// channel-receive order. Float addition is not associative, so each of
// these drifts bitwise between same-seed runs.
package floatacc

import (
	"sort"
	"sync"
)

type stats struct{ sum float64 }

// add accumulates float state it does not own; callers in order-unstable
// contexts inherit the hazard (see mapAddCalls).
func (s *stats) add(v float64) {
	s.sum += v
}

// Map-order reduction: the classic nondeterministic float sum.
func mapSum(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v // want:floatacc "map iteration order"
	}
	return total
}

// Goroutine-order reduction: the mutex serializes, it does not order.
func goroutineSum(vals []float64) float64 {
	var total float64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, v := range vals {
		v := v
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			total += v // want:floatacc "goroutine scheduling order"
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}

// Channel-receive-order reduction.
func chanSum(ch chan float64, n int) float64 {
	var total float64
	for i := 0; i < n; i++ {
		total += <-ch // want:floatacc "channel-receive order"
	}
	return total
}

// Interprocedural: the accumulation hides one call boundary away.
func mapAddCalls(s *stats, m map[string]float64) {
	for _, v := range m {
		s.add(v) // want:floatacc "accumulates float state"
	}
}

// Integer accumulation is associative: clean.
func mapCount(m map[string]float64) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// Slice loops reduce in a deterministic order: clean.
func sliceSum(vals []float64) float64 {
	var total float64
	for _, v := range vals {
		total += v
	}
	return total
}

// Sorted-snapshot reduction is the canonical fix: clean.
func sortedMapSum(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var total float64
	for _, k := range keys {
		total += m[k]
	}
	return total
}

// Per-partition accumulators merged by index are the blessed parallel
// shape (sim.Sharded's per-domain outboxes, drained in domain order):
// clean.
func partitioned(vals []float64) float64 {
	parts := make([]float64, 2)
	var wg sync.WaitGroup
	half := len(vals) / 2
	for p := 0; p < 2; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local float64
			lo, hi := p*half, (p+1)*half
			for _, v := range vals[lo:hi] {
				local += v
			}
			parts[p] = local
		}()
	}
	wg.Wait()
	return parts[0] + parts[1]
}
