//go:build hpncheck

package netsim

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"hpn/internal/route"
	"hpn/internal/sim"
)

// checked reports whether pooled flows are checked. Under the hpncheck
// build tag a completed flow is never reused: it is stamped with its
// release and poisoned (NaN sizes and rate, no path, negative IDs and
// times), so a field read after completion shows up as garbage and every
// netsim entry point handed the flow panics with the stamp.
const checked = true

// release stamps and poisons a completed flow instead of recycling it.
func (s *Sim) release(f *Flow) {
	nan := math.NaN()
	*f = Flow{
		ID: -1, Src: route.Endpoint{Host: -1, NIC: -1}, Dst: route.Endpoint{Host: -1, NIC: -1},
		Bits: nan, Remaining: nan, Rate: nan, Port: -1, PinnedPort: -1,
		StartedAt: -1, DoneAt: -1, index: -1,
		released: &released{id: f.ID, at: f.DoneAt},
	}
}

// live panics if f was released: op is the entry point it reached.
func (f *Flow) live(op string) {
	if f != nil && f.released != nil {
		panic(fmt.Sprintf("netsim: %s on a released flow (flow %d, completed at %v); Pin flows retained past their completion",
			op, f.released.id, f.released.at))
	}
}

// checkRouteHit walks the fabric for a flow routed from its connection's
// route cache and panics if the walk disagrees with the cached port or
// path. The walk runs on a copy, so the flow keeps the cached result.
func (s *Sim) checkRouteHit(f *Flow, now sim.Time) {
	w := Flow{Src: f.Src, Dst: f.Dst, Tuple: f.Tuple, PinnedPort: f.PinnedPort}
	s.walk(&w, now, nil)
	if w.Stalled || w.Port != f.Port || !slices.Equal(w.Path, f.Path) {
		panic(fmt.Sprintf("netsim: route cache hit for %v->%v sport %d gave port %d path %v; the walk gives port %d path %v (stalled %v)",
			f.Src, f.Dst, f.Tuple.SrcPort, f.Port, f.Path, w.Port, w.Path, w.Stalled))
	}
}

// checkHandoff panics if f, leaving a vacancy on the route it rides, is
// not on that route's Path (a flow that takes the vacancy is, or routeFlow
// would not have let it ride): a Path changed under an in-flight flow
// would hand one path's rate to another.
func (s *Sim) checkHandoff(f *Flow) {
	if !slices.Equal(f.Path, f.rt.Path) {
		panic(fmt.Sprintf("netsim: flow %d hands off on route %v but is on %v", f.ID, f.rt.Path, f.Path))
	}
}

// checkComponents runs after every recompute. It re-derives the
// decomposition of s.active from scratch and panics, naming the flows, if
// a runnable flow is carried in no component or in two (a link of its path
// belongs to another component), if two flows share a component without a
// transitive link, if two flows on one path in a carried component carry
// different rate bits, or if refilling a carried component gives its
// flows rate bits other than the ones they carry. It also panics if a
// vacancy (see vacate) outlived the recompute. It works on the allocator
// scratch, which no one reads between recomputes, and on the flow counts
// of the carried components, which only the recompute that built them
// reads.
func (s *Sim) checkComponents() {
	if len(s.vacancies) != 0 {
		panic(fmt.Sprintf("netsim: %d vacancies outlived the recompute that should have settled them", len(s.vacancies)))
	}
	built := make([]bool, len(s.comps))
	for _, ci := range s.built {
		built[ci] = true
	}
	carried := func(ci int32) bool { return !s.compDirty[ci] && !built[ci] }
	for ci := range s.comps {
		if carried(int32(ci)) {
			s.comps[ci].nflows = 0
		}
	}
	s.curEpoch++
	s.touched = s.touched[:0]
	unfrozen := s.unfrozen[:0]
	for _, f := range s.active {
		if f.Stalled || len(f.Path) == 0 {
			if f.comp != noComp || math.Float64bits(f.Rate) != 0 {
				panic(fmt.Sprintf("netsim: stalled flow %d is carried in component %d at rate %v", f.ID, f.comp, f.Rate))
			}
			continue
		}
		if f.comp == noComp || int(f.comp) >= len(s.comps) || s.compDirty[f.comp] {
			panic(fmt.Sprintf("netsim: runnable flow %d is carried in no component", f.ID))
		}
		refill := carried(f.comp)
		i := int32(len(unfrozen))
		if refill {
			unfrozen = append(unfrozen, f)
			s.comps[f.comp].nflows++
		}
		for j, lk := range f.Path {
			if s.touch(lk) {
				s.ufParent[lk] = int32(lk)
			}
			if c := s.compOf[lk]; c != f.comp {
				panic(fmt.Sprintf("netsim: flow %d is in two components: it is carried in %d, but its link %d is in %d with flows %v",
					f.ID, f.comp, lk, c, s.flowsIn(c)))
			}
			if j > 0 {
				s.union(f.Path[0], lk)
			}
			if refill {
				s.nShare[lk]++
				s.inc[lk] = append(s.inc[lk], i)
			}
		}
	}
	s.unfrozen = unfrozen

	root := make([]int32, len(s.comps))
	firstID := make([]int64, len(s.comps))
	for _, f := range s.active {
		if f.comp == noComp {
			continue
		}
		r := s.find(int32(f.Path[0]))
		switch {
		case root[f.comp] == 0:
			root[f.comp], firstID[f.comp] = r+1, f.ID
		case root[f.comp] != r+1:
			panic(fmt.Sprintf("netsim: flows %d and %d share component %d but no link, directly or through other flows",
				firstID[f.comp], f.ID, f.comp))
		}
	}

	// Flows on one path freeze at the same pop, so a hand-off must give a
	// flow its path's rate: compare each carried flow with the first
	// earlier one on its path, found in its first link's incidence list.
	// Then refill every carried component and compare bits.
	rates := make([]uint64, len(unfrozen))
	for i, f := range unfrozen {
		rates[i] = math.Float64bits(f.Rate)
		for _, j := range s.inc[f.Path[0]] {
			if g := unfrozen[j]; int(j) < i && slices.Equal(g.Path, f.Path) {
				if math.Float64bits(g.Rate) != rates[i] {
					panic(fmt.Sprintf("netsim: flows %d and %d share path %v in carried component %d but carry rates %v and %v",
						g.ID, f.ID, f.Path, f.comp, g.Rate, f.Rate))
				}
				break
			}
		}
	}
	s.frozen = append(s.frozen[:0], make([]bool, len(unfrozen))...)
	heapOps := s.phHeapOps
	s.phHeapOps = nil
	for ci := range s.comps {
		if carried(int32(ci)) {
			s.fillComponent(int32(ci))
		}
	}
	s.phHeapOps = heapOps
	for i, f := range unfrozen {
		if got := math.Float64bits(f.Rate); got != rates[i] {
			panic(fmt.Sprintf("netsim: refilling carried component %d gives flow %d rate %v; it carries %v",
				f.comp, f.ID, f.Rate, math.Float64frombits(rates[i])))
		}
	}
}

// flowsIn lists the IDs of the active flows carried in component ci.
func (s *Sim) flowsIn(ci int32) []int64 {
	var ids []int64
	for _, f := range s.active {
		if f.comp == ci {
			ids = append(ids, f.ID)
		}
	}
	return ids
}

// eventGuard watches the event subscribers are handed by pointer: busy
// marks a delivery in progress, and kind and the byte snapshots hold the
// event (scalars and slice headers) and its slices' contents as they were
// before the first subscriber ran.
type eventGuard struct {
	busy            bool
	kind            EventKind
	ev, hops, stats []byte
}

// enterDelivery panics on a nested delivery: the scratch event is not
// reentrant, so a publish from inside FabricEvent would overwrite the
// event the outer subscribers are still being handed.
func (s *Sim) enterDelivery() {
	if s.evGuard.busy {
		panic(fmt.Sprintf("netsim: event published during delivery of a %v event; FabricEvent must not drive the simulator",
			s.evGuard.kind))
	}
	s.evGuard.busy = true
}

func (s *Sim) exitDelivery() { s.evGuard.busy = false }

// snapEvent records e before it is handed out.
func (s *Sim) snapEvent(e *Event) {
	g := &s.evGuard
	g.kind = e.Kind
	g.ev = append(g.ev[:0], bytesOf(e)...)
	g.hops = append(g.hops[:0], sliceBytes(e.Hops)...)
	g.stats = append(g.stats[:0], sliceBytes(e.HopStats)...)
}

// checkEvent panics, naming sub's type, if sub modified e or the contents
// of its slices.
func (s *Sim) checkEvent(e *Event, sub Subscriber) {
	g := &s.evGuard
	if !bytes.Equal(g.ev, bytesOf(e)) || !bytes.Equal(g.hops, sliceBytes(e.Hops)) ||
		!bytes.Equal(g.stats, sliceBytes(e.HopStats)) {
		panic(fmt.Sprintf("netsim: subscriber %T modified the %v event it was handed; copy an event before changing it",
			sub, g.kind))
	}
}

// bytesOf views *p as raw bytes.
func bytesOf[T any](p *T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(p)), unsafe.Sizeof(*p))
}

// sliceBytes views a slice's elements as raw bytes.
func sliceBytes[T any](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), uintptr(len(v))*unsafe.Sizeof(v[0]))
}
