package netsim

import (
	"hpn/internal/sim"
	"hpn/internal/topo"
)

// This file is the max-min fair (progressive filling) allocator, rewritten
// around link-centric accounting:
//
//   - Gathering runnable flows builds, per touched link, a flow-incidence
//     list alongside the remaining-capacity / share-count scratch. The
//     incidence lists replace the original "rescan every flow x hop per
//     filling round" inner loop: each filling round pops the most
//     constrained link from a min-heap and freezes exactly the flows
//     crossing it, so total fill work is O(F*P + L_touched*log L) instead
//     of O(rounds * F * P).
//   - The active flow set is decomposed into connected components of the
//     flow-link contention graph (union-find over path links). Components
//     share no links, so their fills are independent. A component none of
//     whose links is dirty is clean: its fill is skipped and its flows keep
//     the rates of the previous recompute (see below). The only
//     cross-component result, the earliest projected completion, is an
//     exact float min over components in creation order.
//   - The next-completion scan is gone: the minimum Remaining/Rate is
//     tracked incrementally while flows freeze, and the single completion
//     Event is re-armed in place (Engine.Reschedule) instead of
//     cancel+reallocate.
//
// Why a clean component keeps bit-identical rates. Within a component,
// every flow frozen at one bottleneck subtracts the same share (clamped at
// 0) from each link on its path, so the link state after a pop does not
// depend on the order the flows are visited in; and pops follow the total
// order (share, link ID), which does not depend on heap layout. The fill is
// therefore a function of the component's flows, paths and link capacities
// alone, independent of the order of flows in s.active. A link turns dirty
// whenever its flow set or capacity may have changed: routeFlow marks a
// flow's old path and the first link of its new one, removeActive the
// removed flow's path, and the four Fail*/Recover* entry points mark every
// link. A component with no dirty link therefore holds exactly the flows,
// paths and capacities it held at the previous recompute, and a fill would
// reproduce the rates its flows already carry.
//
// The original flows-x-hops implementation is preserved verbatim (with its
// defensive branch fixed) in alloc_reference.go and pinned against this one
// by the differential property tests.

// allocComp is one connected component of the flow-link contention graph:
// the indices (into the unfrozen scratch) of its flows, the touched links
// they cross, and whether any of those links is dirty.
type allocComp struct {
	flows []int32
	links []topo.LinkID
	dirty bool
}

// heapEnt is one candidate bottleneck: a link and the fair share it offered
// when keyed. Entries go stale as flows freeze (shares only grow); a stale
// minimum is detected by recomputing the share and re-keyed in place at its
// current value, so each link holds exactly one live entry until it drains.
type heapEnt struct {
	share float64
	link  topo.LinkID
}

// linkHeap is a binary min-heap of (share, link), ordered by share then
// link ID so equal-share pops are deterministic. It is seeded by bulk
// heapify and updated in place (replace-top) on stale entries, so each
// entry costs one sift rather than a pop/push pair.
type linkHeap []heapEnt

func entLess(a, b heapEnt) bool {
	if a.share < b.share {
		return true
	}
	if a.share > b.share {
		return false
	}
	return a.link < b.link
}

// heapify establishes the heap invariant over arbitrary contents in O(n).
func (h linkHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h linkHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && entLess(h[l], h[m]) {
			m = l
		}
		if r < n && entLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// popDiscard removes the minimum entry (the caller has already read it).
func (h *linkHeap) popDiscard() {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	s.siftDown(0)
}

// recompute performs the max-min fair bandwidth allocation over all running
// flows, refreshes probe accumulators, and (re-)arms the next completion
// event. See the file comment for the algorithm.
func (s *Sim) recompute() {
	rtk := s.phRecompute.Begin()
	s.curEpoch++
	s.touched = s.touched[:0]
	s.ctrRecomputes.Inc()
	if s.Trace != nil {
		// One counter sample per allocation round: the active-flow track
		// lines up recomputation churn against spans in the trace viewer.
		s.Trace.Counter(int64(s.Eng.Now()), "active_flows", float64(len(s.active)))
	}

	// Gather running flows; initialize link accounting and incidence lists.
	unfrozen := s.unfrozen[:0]
	for _, f := range s.active {
		if f.Stalled || len(f.Path) == 0 {
			f.Rate = 0
			continue
		}
		idx := int32(len(unfrozen))
		unfrozen = append(unfrozen, f)
		for i, lk := range f.Path {
			s.touch(lk)
			s.nShare[lk]++
			s.inc[lk] = append(s.inc[lk], idx)
			if i > 0 {
				s.union(f.Path[0], lk)
			}
		}
	}
	s.unfrozen = unfrozen

	// Offered-demand model for the queue proxy: a flow wishes for its fair
	// share at its first (access) link.
	for _, f := range unfrozen {
		first := f.Path[0]
		wish := s.capRem[first] / float64(s.nShare[first])
		for _, lk := range f.Path {
			s.demand[lk] += wish
		}
	}

	// Component decomposition: components are created in active-flow order
	// (the first — smallest-indexed — flow of each component names it), so
	// the component list and everything derived from it is deterministic.
	dtk := s.phDecompose.Begin()
	s.comps = s.comps[:0]
	if cap(s.frozen) < len(unfrozen) {
		s.frozen = make([]bool, len(unfrozen))
	}
	s.frozen = s.frozen[:len(unfrozen)]
	for i := range s.frozen {
		s.frozen[i] = false
	}
	for i, f := range unfrozen {
		root := s.find(int32(f.Path[0]))
		ci := s.compOf[root]
		if ci < 0 {
			ci = int32(s.addComp())
			s.compOf[root] = ci
		}
		c := &s.comps[ci]
		c.flows = append(c.flows, int32(i))
	}
	// The same pass consumes the dirty marks of touched links. A mark left
	// on an untouched link is harmless: any flow that crosses that link
	// later arrives through routeFlow, whose own mark already makes its
	// component dirty.
	for _, lk := range s.touched {
		c := &s.comps[s.compOf[s.find(int32(lk))]]
		c.links = append(c.links, lk)
		if s.dirty[lk] {
			c.dirty = true
			s.dirty[lk] = false
		}
	}
	s.phDecompose.End(dtk)

	// Fill each dirty component; a clean one keeps its rates and only
	// re-derives its earliest completion. The merge is an exact float min
	// over components in creation order.
	ftk := s.phFill.Begin()
	best := -1.0
	reused := int64(0)
	for i := range s.comps {
		c := &s.comps[i]
		var t float64
		if c.dirty || s.allDirty {
			t = s.fillComponent(c)
		} else {
			t = s.reusedMinT(c)
			reused++
		}
		if t >= 0 && (best < 0 || t < best) {
			best = t
		}
	}
	s.phFill.End(ftk)
	s.phFillReused.Add(reused)
	s.allDirty = false

	// Refresh probe accumulators from the new allocation. Iteration goes
	// through the registration-ordered probeList, never a map, so
	// accumulator refresh order (and anything it may ever feed) stays
	// deterministic. Utilization comes from the link's incidence list —
	// summed in gather (= active) order, exactly as the previous
	// all-flows-x-hops scan accumulated it.
	for _, p := range s.probeList {
		p.util, p.demand = 0, 0
		lk := p.Link
		p.cap = s.Top.Link(lk).CapBps
		if !s.Top.LinkUsable(lk) {
			p.cap = 0
		}
		if s.epoch[lk] == s.curEpoch {
			p.demand = s.demand[lk]
			for _, fi := range s.inc[lk] {
				p.util += unfrozen[fi].Rate
			}
		}
	}
	if s.inband != nil {
		s.inbandRefresh()
	}

	s.scheduleCompletion(best)
	s.phRecompute.End(rtk)
}

// markDirty records that a flow left path: every component still crossing
// it is refilled at the next recompute. All links are marked because the
// component the flow held together may split.
func (s *Sim) markDirty(path []topo.LinkID) {
	for _, lk := range path {
		s.dirty[lk] = true
	}
}

// reusedMinT returns a clean component's earliest projected completion in
// seconds (-1 if none) from the rates its flows already hold: the same
// Remaining/Rate division fillComponent performs, and an exact min.
func (s *Sim) reusedMinT(c *allocComp) float64 {
	minT := -1.0
	for _, fi := range c.flows {
		f := s.unfrozen[fi]
		if f.Rate > 0 {
			if t := f.Remaining / f.Rate; minT < 0 || t < minT {
				minT = t
			}
		}
	}
	return minT
}

// fillComponent runs progressive filling over one component and returns its
// earliest projected completion in seconds (-1 if none). It reads and
// writes only the component's own flows and links plus the heap scratch.
// Heap operations are tallied locally and flushed once into the profiler,
// so the hot loop costs nothing extra.
//
// Invariant behind the lazy heap: freezing a flow at the current bottleneck
// share can only raise the share of every link it crosses, so a popped
// entry whose recorded share is below the link's current share is stale and
// is re-pushed at its current value; a fresh pop is the exact component-wide
// minimum (every other link's current share is at least its heap key). The
// tie tolerance matches the reference implementation's freeze threshold.
func (s *Sim) fillComponent(c *allocComp) float64 {
	heapOps := int64(0)
	hs := s.heap[:0]
	for _, lk := range c.links {
		if n := s.nShare[lk]; n > 0 {
			hs = append(hs, heapEnt{share: s.capRem[lk] / float64(n), link: lk})
		}
	}
	hs.heapify()
	s.heap = hs
	h := &s.heap
	minT := -1.0
	// live counts the component's still-unfrozen flows: once it hits zero
	// the remaining heap entries can only be drained or stale links, so the
	// loop stops instead of sifting through them (the dominant waste on
	// symmetric workloads where one plateau freezes everything).
	live := len(c.flows)
	for live > 0 && len(*h) > 0 {
		e := (*h)[0]
		n := s.nShare[e.link]
		if n == 0 {
			heapOps++
			h.popDiscard() // fully drained by earlier freezes
			continue
		}
		cur := s.capRem[e.link] / float64(n)
		if cur > e.share*(1+1e-9)+1e-9 {
			// Stale: the share grew since the entry was keyed. Re-key it in
			// place and restore the invariant with a single sift.
			heapOps++
			(*h)[0].share = cur
			(*h).siftDown(0)
			continue
		}
		heapOps++
		h.popDiscard()
		for _, fi := range s.inc[e.link] {
			if s.frozen[fi] {
				continue
			}
			s.frozen[fi] = true
			live--
			f := s.unfrozen[fi]
			f.Rate = cur
			if cur > 0 {
				if t := f.Remaining / cur; minT < 0 || t < minT {
					minT = t
				}
			}
			for _, l2 := range f.Path {
				rem := s.capRem[l2] - cur
				if rem < 0 {
					rem = 0 // float guard; exact arithmetic keeps this >= 0
				}
				s.capRem[l2] = rem
				s.nShare[l2]--
			}
		}
	}
	// Defensive: a flow every one of whose links drained without freezing
	// it cannot occur (its own membership keeps nShare >= 1 on each of its
	// links, and each such link holds a heap entry until processed), but if
	// the invariant ever broke we must not leave stale rates or corrupt the
	// share accounting — park the flow at zero rate and retire its path
	// shares consistently.
	for _, fi := range c.flows {
		if s.frozen[fi] {
			continue
		}
		s.frozen[fi] = true
		f := s.unfrozen[fi]
		f.Rate = 0
		for _, l2 := range f.Path {
			s.nShare[l2]--
		}
	}
	s.phHeapOps.Add(heapOps)
	return minT
}

// touch initializes the scratch accounting for a link in this epoch.
func (s *Sim) touch(lk topo.LinkID) {
	if s.epoch[lk] == s.curEpoch {
		return
	}
	s.epoch[lk] = s.curEpoch
	cap := s.Top.Link(lk).CapBps
	if !s.Top.LinkUsable(lk) {
		cap = 0
	}
	s.capRem[lk] = cap
	s.nShare[lk] = 0
	s.demand[lk] = 0
	s.inc[lk] = s.inc[lk][:0]
	s.ufParent[lk] = int32(lk)
	s.compOf[lk] = -1
	s.touched = append(s.touched, lk)
}

// find returns the union-find root of a touched link, with path halving.
// Roots are canonical: union always parents the larger root under the
// smaller, so a component's root is its smallest link ID regardless of
// union order.
func (s *Sim) find(l int32) int32 {
	p := s.ufParent
	for p[l] != l {
		p[l] = p[p[l]]
		l = p[l]
	}
	return l
}

// union merges the components of two touched links.
func (s *Sim) union(a, b topo.LinkID) {
	ra, rb := s.find(int32(a)), s.find(int32(b))
	if ra == rb {
		return
	}
	if ra < rb {
		s.ufParent[rb] = ra
	} else {
		s.ufParent[ra] = rb
	}
}

// addComp appends a reset component to the scratch list and returns its
// index, reusing the flow/link slices of earlier recomputes.
func (s *Sim) addComp() int {
	n := len(s.comps)
	if n < cap(s.comps) {
		s.comps = s.comps[:n+1]
	} else {
		s.comps = append(s.comps, allocComp{})
	}
	c := &s.comps[n]
	c.flows = c.flows[:0]
	c.links = c.links[:0]
	c.dirty = false
	return n
}

// scheduleCompletion (re)arms the completion event for the earliest
// projected completion, tracked incrementally during the fill (best < 0
// means no flow is moving). A still-pending Event is moved in place; after
// one fires, completionEvent drops the handle and the engine recycles the
// event into the next ScheduleAt, so the hot path allocates nothing.
func (s *Sim) scheduleCompletion(best float64) {
	if best < 0 {
		if s.completionEv != nil {
			s.Eng.Cancel(s.completionEv)
			s.completionEv = nil
		}
		return
	}
	at := s.Eng.Now() + sim.Time(best*float64(sim.Second))
	if s.Eng.Reschedule(s.completionEv, at) {
		return
	}
	s.completionEv = s.Eng.ScheduleAt(at, s.fireCompletion)
}
