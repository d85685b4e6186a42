package netsim

import (
	"hpn/internal/sim"
	"hpn/internal/topo"
)

// This file is the max-min fair (progressive filling) allocator, built
// around link-centric accounting and contention components that persist
// across recomputes:
//
//   - The runnable flows split into connected components of the flow-link
//     contention graph (union-find over path links). Components share no
//     links, so their fills are independent. A component persists from
//     one recompute to the next: compOf maps each link its flows cross to
//     it, and each of its flows names it in Flow.comp.
//   - A mutation marks the components it may change dirty. A recompute
//     dissolves the dirty components and regathers, in active order, only
//     their flows and the flows started or rerouted since: per touched
//     link, a flow-incidence list alongside the remaining-capacity /
//     share-count scratch, and the union-find. It decomposes and refills
//     just those. Each filling round pops the most constrained link from a
//     min-heap and freezes exactly the flows crossing it, so fill work is
//     O(F*P + L_touched*log L) over the regathered flows.
//   - A clean component is carried: its links, its flows and their rates
//     stay as they are, and only its earliest completion is re-derived
//     (the exact min of Remaining/Rate, the fill's own division). The
//     earliest projected completion overall is an exact float min, so it
//     does not depend on the order components are visited in. The single
//     completion Event is re-armed in place (Engine.Reschedule).
//   - Offered demand, probe utilisation and the in-band refresh need every
//     runnable flow, so while a probe or the in-band collector is attached
//     the carried flows are gathered too, after decomposition (offerDemand).
//     Their per-link sums still run in active order.
//
// Why a carried component keeps bit-identical rates. Within a component,
// every flow frozen at one bottleneck subtracts the same share (clamped at
// 0) from each link on its path, so the link state after a pop does not
// depend on the order the flows are visited in; and pops follow the total
// order (share, link ID), which does not depend on heap layout. The fill is
// therefore a function of the component's path multiset and link
// capacities alone, and flows with identical paths freeze at the same pop,
// so at the same rate. A component is marked dirty whenever its path
// multiset or a capacity may have changed:
//
//   - a flow leaving it that no flow on its connection replaces: vacate
//     records a vacancy instead of a mark, and recompute marks the
//     component if no flow took the vacancy, since the component may split;
//   - a flow routed off it (routeFlow moving the flow), for the same reason;
//   - a runnable flow routed over any of its links (routeFlow) that takes
//     no vacancy, since the flow merges every component its path crosses;
//   - a topology transition (the four Fail*/Recover* entry points set
//     allDirty, which dissolves every component).
//
// A flow riding the route of a vacancy in its mutation takes it (join): it
// joins the departed flow's component at the departed flow's rate. Both
// flows are on the route's Path, so the component's path multiset is
// unchanged and it stays carried. This is the steady state of training
// traffic, where every collective step re-sends on the same connections.
//
// A component with no mark therefore holds exactly the path multiset and
// capacities it held when it was filled, and a refill would reproduce the
// rates its flows already carry. Under the hpncheck build tag every
// recompute re-derives the decomposition from scratch and refills the
// carried components to check this (check_on.go).
//
// The original flows-x-hops implementation is preserved verbatim (with its
// defensive branch fixed) in alloc_reference.go and pinned against this one
// by the differential property tests.

// allocComp is one connected component of the flow-link contention graph:
// the links its flows cross (compOf maps each back to the component) and
// how many flows the recompute that built it gathered. Sim.compDirty,
// parallel to Sim.comps, holds whether a mutation has marked it for
// rebuild.
type allocComp struct {
	links  []topo.LinkID
	nflows int32
}

// vacancy is the place a flow riding route rt left in a clean component
// during the current mutation: the component and the flow's rate. next
// chains the vacancies of one route (see Route.vac). Once a flow takes it,
// comp is noComp.
type vacancy struct {
	comp, next int32
	rate       float64
	rt         *Route
}

// noComp is Sim.comps[0], the component of no flow. It is permanently
// dirty, so a flow that names it (a new, rerouted or stalled flow) is
// regathered and marking it is a no-op. A dissolved component's slot stays
// dirty too until addComp hands it out again.
const noComp int32 = 0

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

	// A component left with a vacancy no flow took has lost a flow. The
	// taken ones are counted here, not in join, so the hot path never
	// touches the profiler.
	if len(s.vacancies) > 0 {
		taken := int64(0)
		for _, v := range s.vacancies {
			v.rt.vac = 0
			if v.comp == noComp {
				taken++
			}
			s.markComp(v.comp)
		}
		s.phHandoffs.Add(taken)
		s.vacancies = s.vacancies[:0]
	}

	// Dissolve the dirty components: their links return to no component.
	// The slots stay dirty until reused, so the gather below still sees
	// their flows as dirty.
	if s.allDirty {
		for ci := range s.comps {
			s.markComp(int32(ci))
		}
		s.allDirty = false
	}
	for _, ci := range s.dirtyComps {
		c := &s.comps[ci]
		for _, lk := range c.links {
			s.compOf[lk] = noComp
		}
		c.links = c.links[:0]
	}
	s.reuse = 0

	// Gather: a flow of a carried component keeps its rate and only
	// offers its projected completion to the earliest one. Every other
	// runnable flow is regathered with its links' accounting, incidence
	// lists and union-find. No regathered flow crosses a carried
	// component's link: routing it there would have marked the component.
	observe := len(s.probeList) > 0 || s.inband != nil
	best := -1.0
	unfrozen := s.unfrozen[:0]
	carried := s.carried[:0]
	for _, f := range s.active {
		if f.Stalled || len(f.Path) == 0 {
			f.Rate = 0
			f.comp = noComp
			continue
		}
		if !s.compDirty[f.comp] {
			if f.Rate > 0 {
				if t := f.Remaining / f.Rate; best < 0 || t < best {
					best = t
				}
			}
			if observe {
				carried = append(carried, f)
			}
			continue
		}
		idx := int32(len(unfrozen))
		unfrozen = append(unfrozen, f)
		for i, lk := range f.Path {
			if s.touch(lk) {
				s.ufParent[lk] = int32(lk)
				s.compOf[lk] = noComp
			}
			s.nShare[lk]++
			s.inc[lk] = append(s.inc[lk], idx)
			if i > 0 {
				s.union(f.Path[0], lk)
			}
		}
	}
	s.unfrozen = unfrozen

	// Decompose the regathered flows. Components are created in gather
	// order, and every link and flow is stamped with its component.
	dtk := s.phDecompose.Begin()
	if cap(s.frozen) < len(unfrozen) {
		s.frozen = make([]bool, len(unfrozen))
	}
	s.frozen = s.frozen[:len(unfrozen)]
	for i := range s.frozen {
		s.frozen[i] = false
	}
	built := s.built[:0]
	for _, f := range unfrozen {
		root := s.find(int32(f.Path[0]))
		ci := s.compOf[root]
		if ci == noComp {
			ci = s.addComp(f.comp)
			s.compOf[root] = ci
			built = append(built, ci)
		}
		s.comps[ci].nflows++
		f.comp = ci
	}
	for _, lk := range s.touched {
		ci := s.compOf[s.find(int32(lk))]
		s.compOf[lk] = ci
		c := &s.comps[ci]
		c.links = append(c.links, lk)
	}
	s.built = built
	// The dissolved slots no new component took are free.
	for _, ci := range s.dirtyComps[s.reuse:] {
		if s.compDirty[ci] {
			s.compFree = append(s.compFree, ci)
		}
	}
	s.dirtyComps = s.dirtyComps[:0]
	s.phDecompose.End(dtk)

	regathered := len(unfrozen)
	if observe {
		s.offerDemand(carried)
	}
	s.carried = carried

	// Fill each rebuilt component. The merge with the carried components'
	// completions is an exact float min.
	ftk := s.phFill.Begin()
	for _, ci := range built {
		if t := s.fillComponent(ci); t >= 0 && (best < 0 || t < best) {
			best = t
		}
	}
	s.phFill.End(ftk)
	s.phFillReused.Add(int64(len(s.comps) - 1 - len(s.compFree) - len(built)))
	s.phRegathered.Add(int64(regathered))

	if observe {
		s.refreshProbes()
		if s.inband != nil {
			s.inbandRefresh()
		}
	}

	s.scheduleCompletion(best)
	s.phRecompute.End(rtk)
	s.checkComponents()
}

// offerDemand prepares what the probes and the in-band collector read.
// It gathers the carried flows after the regathered ones, with their
// links' accounting and incidence lists, clears every gathered link's
// demand, and then adds each runnable flow's offered demand, its fair
// share at its first (access) link, to every link of its path. A link's
// flows are all regathered or all carried, and each kind is gathered in
// active order, so every per-link sum runs in active order and does not
// depend on which components were carried. It runs between decomposition, which must see only the
// regathered links, and the fill, which consumes the share accounting.
func (s *Sim) offerDemand(carried []*Flow) {
	for _, f := range carried {
		idx := int32(len(s.unfrozen))
		s.unfrozen = append(s.unfrozen, f)
		for _, lk := range f.Path {
			s.touch(lk)
			s.nShare[lk]++
			s.inc[lk] = append(s.inc[lk], idx)
		}
	}
	for _, lk := range s.touched {
		s.demand[lk] = 0
	}
	for _, f := range s.unfrozen {
		first := f.Path[0]
		wish := s.capRem[first] / float64(s.nShare[first])
		for _, lk := range f.Path {
			s.demand[lk] += wish
		}
	}
}

// needDemand allocates the per-link offered-demand scratch offerDemand
// fills. Only the probes and the in-band collector read it, so a Sim
// without them never pays for it.
func (s *Sim) needDemand() {
	if s.demand == nil {
		s.demand = make([]float64, len(s.Top.Links))
	}
}

// refreshProbes refreshes the probe accumulators from the new allocation.
// Iteration goes through the registration-ordered probeList, never a map,
// so accumulator refresh order (and anything it may ever feed) stays
// deterministic. Utilization comes from the link's incidence list, summed
// in active order.
func (s *Sim) refreshProbes() {
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
				p.util += s.unfrozen[fi].Rate
			}
		}
	}
}

// markComp marks component ci for rebuild at the next recompute. Marking a
// dirty component, noComp included, is a no-op.
func (s *Sim) markComp(ci int32) {
	if !s.compDirty[ci] {
		s.compDirty[ci] = true
		s.dirtyComps = append(s.dirtyComps, ci)
	}
}

// markMerges marks every component path crosses: a runnable flow routed
// over it joins them all into one.
func (s *Sim) markMerges(path []topo.LinkID) {
	for _, lk := range path {
		s.markComp(s.compOf[lk])
	}
}

// leaveComp takes f out of its component, which may split, and marks it.
func (s *Sim) leaveComp(f *Flow) {
	s.markComp(f.comp)
	f.comp = noComp
}

// vacate takes a departing flow out of its component. A clean component
// left by a flow riding a route is not marked: the place is hung off the
// route for join, and recompute marks the component if no flow takes it.
func (s *Sim) vacate(f *Flow) {
	ci := f.comp
	f.comp = noComp
	if s.compDirty[ci] {
		return
	}
	rt := f.rt
	if rt == nil {
		s.markComp(ci)
		return
	}
	s.checkHandoff(f)
	s.vacancies = append(s.vacancies, vacancy{comp: ci, next: rt.vac, rate: f.Rate, rt: rt})
	rt.vac = int32(len(s.vacancies))
}

// join places a runnable flow just routed (its path is never empty). If a
// flow riding its route left a still clean component in this mutation,
// it takes that vacancy: the component and the departed flow's rate,
// which a refill would give it too. Otherwise it marks every component
// its path crosses.
func (s *Sim) join(f *Flow) {
	if f.rt != nil && !s.allDirty {
		if ci := s.compOf[f.Path[0]]; !s.compDirty[ci] {
			for i := f.rt.vac; i != 0; i = s.vacancies[i-1].next {
				if v := &s.vacancies[i-1]; v.comp == ci {
					v.comp = noComp
					f.comp, f.Rate = ci, v.rate
					return
				}
			}
		}
	}
	s.markMerges(f.Path)
}

// fillComponent runs progressive filling over component ci, built by this
// recompute, and returns its earliest projected completion in seconds (-1
// if none). It reads and writes only the component's own flows and links
// plus the heap scratch.
// Heap operations are tallied locally and flushed once into the profiler,
// so the hot loop costs nothing extra.
//
// Invariant behind the lazy heap: freezing a flow at the current bottleneck
// share can only raise the share of every link it crosses, so a popped
// entry whose recorded share is below the link's current share is stale and
// is re-pushed at its current value; a fresh pop is the exact component-wide
// minimum (every other link's current share is at least its heap key). The
// tie tolerance matches the reference implementation's freeze threshold.
func (s *Sim) fillComponent(ci int32) float64 {
	c := &s.comps[ci]
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
	live := c.nflows
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
	// shares consistently. The component keeps no flow list, so the sweep
	// looks for its flows among every regathered one.
	for fi := 0; live > 0 && fi < len(s.frozen); fi++ {
		f := s.unfrozen[fi]
		if s.frozen[fi] || f.comp != ci {
			continue
		}
		s.frozen[fi] = true
		live--
		f.Rate = 0
		for _, l2 := range f.Path {
			s.nShare[l2]--
		}
	}
	s.phHeapOps.Add(heapOps)
	return minT
}

// touch initializes a link's scratch accounting the first time this epoch
// sees it, and reports whether it did.
func (s *Sim) touch(lk topo.LinkID) bool {
	if s.epoch[lk] == s.curEpoch {
		return false
	}
	s.epoch[lk] = s.curEpoch
	cap := s.Top.Link(lk).CapBps
	if !s.Top.LinkUsable(lk) {
		cap = 0
	}
	s.capRem[lk] = cap
	s.nShare[lk] = 0
	s.inc[lk] = s.inc[lk][:0]
	s.touched = append(s.touched, lk)
	return true
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

// addComp returns the slot of a new, empty component whose first flow
// was carried in prev. It takes prev if that component was dissolved in
// this recompute and no other new component has taken it yet; else a slot
// freed by an earlier recompute; else the next slot dissolved in this one
// and not yet taken; else a new one at the end. A component rebuilt from
// much the same flows thus keeps its slot and the capacity of its link
// list, so the steady state allocates nothing. While a recompute builds
// components, a slot other than noComp is free exactly when it is dirty.
func (s *Sim) addComp(prev int32) int32 {
	ci := prev
	if prev == noComp || !s.compDirty[prev] {
		ci = noComp
		if n := len(s.compFree); n > 0 {
			ci = s.compFree[n-1]
			s.compFree = s.compFree[:n-1]
		}
		for ci == noComp && s.reuse < len(s.dirtyComps) {
			if cand := s.dirtyComps[s.reuse]; s.compDirty[cand] {
				ci = cand
			}
			s.reuse++
		}
		if ci == noComp {
			ci = int32(len(s.comps))
			s.comps = append(s.comps, allocComp{})
			s.compDirty = append(s.compDirty, false)
		}
	}
	c := &s.comps[ci]
	c.links = c.links[:0]
	c.nflows = 0
	s.compDirty[ci] = false
	return ci
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
