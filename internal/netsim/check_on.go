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
