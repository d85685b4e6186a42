package main

import (
	"container/heap"
	"slices"
	"sort"
	"sync"
)

// Host-speed normalization. On a shared host the same rep can take a third
// longer at one moment than a few minutes earlier, because neighbours load
// the same cores. Around every rep the parent process times a fixed
// reference kernel, and every host time of that rep is scaled by
// refNominal / (kernel time): a rep that ran while the host was slow reads
// as if it had run at nominal speed. The calibration runs in runs/ record
// run_s both ways (raw_run_s is the unscaled one); README.md gives the
// spreads. The kernel is the benchmark's own code, so a change to the
// simulator cannot move it.

// refNominal defines the nominal second, by the number of kernel copies
// run at once (index 1 or 2): a host time t measured while the kernel took
// k seconds reads as t * refNominal / k. Any fixed value would do, since it
// sets only the unit and divides out of a comparison of two commits; these
// are the kernel's readings on the baseline host under light load, so that
// nominal seconds are close to that host's seconds. A rep that uses two
// cores is read with two copies in parallel: a neighbour that slows either
// core slows both the rep and the reading.
var refNominal = [...]float64{1: 0.032, 2: 0.043} // seconds

// refSamples kernel timings are taken just before and again just after
// each rep, bracketing it; their median is the rep's reading.
const refSamples = 2

// withHostRef wraps a runner so every rep carries the host-speed reading
// taken around it and the scale derived from it.
func withHostRef(run runner) runner {
	return func(cfg repConfig, procs int) repResult {
		copies := procs
		if copies >= len(refNominal) {
			copies = len(refNominal) - 1
		}
		ts := timeKernel(copies, nil)
		res := run(cfg, procs)
		res.RefS = median(timeKernel(copies, ts))
		res.Scale = refNominal[copies] / res.RefS
		return res
	}
}

// timeKernel appends refSamples wall times, in seconds, of `copies`
// concurrent runs of the reference kernel to ts.
func timeKernel(copies int, ts []float64) []float64 {
	for i := 0; i < refSamples; i++ {
		var wg sync.WaitGroup
		t := clock()
		wg.Add(copies)
		for c := 0; c < copies; c++ {
			go func() {
				defer wg.Done()
				refKernel()
			}()
		}
		wg.Wait()
		ts = append(ts, clock().Sub(t).Seconds())
	}
	return ts
}

// speedScale is the factor that converts a rep's host times to nominal
// seconds (1 when the rep carries no reading).
func speedScale(r repResult) float64 {
	if r.Scale <= 0 {
		return 1
	}
	return r.Scale
}

// refKernel is fixed work shaped like the simulator's: pointer chasing
// through a megabyte of heap nodes, binary-heap pushes and pops, map
// updates, a sort, and a churn of short-lived small objects that keeps the
// collector busy, on a deterministic pseudo-random sequence. It returns a
// checksum so no step can be optimized away.
func refKernel() float64 {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	type node struct {
		next *node
		v    float64
	}
	const n = 1 << 16
	nodes := make([]*node, n)
	for i := range nodes {
		nodes[i] = &node{v: float64(i)}
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i < n; i++ {
		nodes[perm[i]].next = nodes[perm[(i+1)%n]]
	}
	sum := 0.0
	p := nodes[0]
	for i := 0; i < 4*n; i++ {
		sum += p.v
		p = p.next
	}
	h := &floatHeap{}
	for i := 0; i < 40000; i++ {
		heap.Push(h, float64(next()%1000000))
	}
	for h.Len() > 0 {
		sum += heap.Pop(h).(float64)
	}
	m := map[uint64]int{}
	for i := 0; i < 40000; i++ {
		m[next()%50000]++
	}
	sum += float64(len(m))
	a := make([]float64, 60000)
	for i := range a {
		a[i] = float64(next() % 1000000)
	}
	sort.Float64s(a)
	sum += a[100] + slices.Max(a)
	type cell struct {
		next *cell
		pad  [16]float64
	}
	var list *cell
	for i := 0; i < 200000; i++ {
		c := &cell{next: list}
		c.pad[i%16] = float64(i)
		list = c
		if i%1000 == 999 {
			sum += list.pad[i%16]
			list = nil
		}
	}
	return sum
}

type floatHeap []float64

func (h floatHeap) Len() int           { return len(h) }
func (h floatHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h floatHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *floatHeap) Push(v any)        { *h = append(*h, v.(float64)) }
func (h *floatHeap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}
