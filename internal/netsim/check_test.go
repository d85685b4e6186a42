//go:build hpncheck

package netsim

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"hpn/internal/route"
)

// mustPanic runs fn and requires a panic whose message contains want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one mentioning %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v; want one mentioning %q", r, want)
		}
	}()
	fn()
}

// TestUseAfterRecyclePanics keeps an unpinned flow past its completion —
// the misuse that, in an unchecked build, addresses whichever flow reused
// its storage — and requires every netsim entry point to refuse it and its
// fields to read as poison.
func TestUseAfterRecyclePanics(t *testing.T) {
	eng, _, s := newSim(t, 2, 4, 4)
	src, dst := route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 4, NIC: 0}
	f, err := s.StartFlow(src, dst, 1<<20, FlowOpts{SrcPort: 0})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if g, _ := s.StartFlow(src, dst, 1<<20, FlowOpts{SrcPort: 0}); g == f {
		t.Fatal("a checked build recycled a released flow")
	}
	if !math.IsNaN(f.Remaining) || len(f.Path) != 0 || f.ID != -1 {
		t.Fatalf("released flow not poisoned: ID %d Remaining %v Path %v", f.ID, f.Remaining, f.Path)
	}
	mustPanic(t, "AbortFlow on a released flow (flow 0, completed at", func() { s.AbortFlow(f) })
	mustPanic(t, "Done on a released flow", func() { f.Done() })
	mustPanic(t, "Pin on a released flow", func() { f.Pin() })
	mustPanic(t, "route on a released flow", func() { s.routeFlow(f, nil) })
	eng.Run()
}

// TestRouteHitVerifiesWalk hands one connection's Route to a flow with a
// different destination, which an unchecked build would route over the
// cached path, and requires the checked build's walk to refuse the hit.
func TestRouteHitVerifiesWalk(t *testing.T) {
	_, _, s := newSim(t, 2, 4, 4)
	src, dst := route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 4, NIC: 0}
	rt := establish(t, s, src, dst, 0, 50000)
	opt := FlowOpts{SrcPort: 0, Route: rt}
	if _, err := s.StartFlow(src, dst, 1<<20, opt); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "route cache hit for {0 0}->{5 0} sport 50000", func() {
		s.StartFlow(src, route.Endpoint{Host: 5, NIC: 0}, 1<<20, opt)
	})
}

// TestPinnedAndAbortedFlowsStayLive checks the two ways a flow handle
// legitimately outlives the flow are never stamped.
func TestPinnedAndAbortedFlowsStayLive(t *testing.T) {
	eng, _, s := newSim(t, 2, 4, 4)
	src, dst := route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 4, NIC: 0}
	pinned, err := s.StartFlow(src, dst, 1<<20, FlowOpts{SrcPort: 0})
	if err != nil {
		t.Fatal(err)
	}
	pinned.Pin()
	aborted, err := s.StartFlow(src, dst, 1<<20, FlowOpts{SrcPort: 0})
	if err != nil {
		t.Fatal(err)
	}
	s.AbortFlow(aborted)
	eng.Run()
	if !pinned.Done() || !aborted.Done() || pinned.DoneAt == 0 {
		t.Fatal("pinned or aborted flow misreports its state")
	}
	s.AbortFlow(pinned)
	s.AbortFlow(aborted)
}

// mutator breaks the Subscriber contract: it changes the event it is
// handed with mutate.
type mutator struct {
	kinds  EventKind
	mutate func(e *Event)
}

func (m *mutator) Kinds() EventKind     { return m.kinds }
func (m *mutator) FabricEvent(e *Event) { m.mutate(e) }

// TestSubscriberMutationPanics requires the checked build to catch a
// subscriber that modifies the event it is handed — a scalar, a slice
// header or a slice's contents — both on a live publish and on a memo
// redelivery, naming the subscriber's type.
func TestSubscriberMutationPanics(t *testing.T) {
	const want = "subscriber *netsim.mutator modified the flow_routed event"
	for _, c := range []struct {
		name   string
		mutate func(e *Event)
	}{
		{"scalar", func(e *Event) { e.Flow.Port++ }},
		{"header", func(e *Event) { e.Hops = e.Hops[:0] }},
		{"contents", func(e *Event) { e.Hops[0].Bucket++ }},
	} {
		mutate := c.mutate
		t.Run(c.name, func(t *testing.T) {
			_, _, s := newSim(t, 2, 4, 4)
			s.Subscribe(&mutator{kinds: EvFlowRouted, mutate: mutate})
			mustPanic(t, want, func() {
				s.StartFlow(route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 4, NIC: 0}, 1<<20, FlowOpts{SrcPort: 0})
			})

			_, _, s = newSim(t, 2, 4, 4)
			s.Subscribe(&mutator{kinds: EvFlowRouted, mutate: mutate})
			hops := []route.HopDecision{{Hashed: true, Group: 4, Bucket: 1}}
			evs := []Event{{Kind: EvFlowRouted, At: 5, Flow: FlowState{ID: 3}, Hops: hops}}
			mustPanic(t, want, func() { s.Redeliver(evs, Shift{}, Shift{T: 10, ID: 1}, 0) })
		})
	}
}

// republisher drives the simulator from inside FabricEvent.
type republisher struct{ s *Sim }

func (republisher) Kinds() EventKind { return EvFlowRouted | EvLinkDown }
func (r republisher) FabricEvent(e *Event) {
	if e.Kind == EvFlowRouted {
		r.s.publish(Event{Kind: EvLinkDown})
	}
}

// TestNestedPublishPanics requires the checked build to refuse a publish
// from inside a delivery, which would overwrite the scratch event the
// outer subscribers are still being handed.
func TestNestedPublishPanics(t *testing.T) {
	_, _, s := newSim(t, 2, 4, 4)
	s.Subscribe(republisher{s})
	mustPanic(t, "event published during delivery of a flow_routed event", func() {
		s.StartFlow(route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 4, NIC: 0}, 1<<20, FlowOpts{SrcPort: 0})
	})
}

// TestMissedMergePanics routes a flow across two carried components and
// drops the merge marks routing set, so the recompute regathers the flow
// alone and its new component takes links the carried ones still hold.
// The checked build must name the flow carried in two components.
func TestMissedMergePanics(t *testing.T) {
	_, _, s := newSim(t, 1, 8, 2)
	start := func(src, dst int) *Flow {
		f, err := s.StartFlow(route.Endpoint{Host: src, NIC: 0}, route.Endpoint{Host: dst, NIC: 0}, 1<<30, FlowOpts{SrcPort: 0})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	var a, b *Flow
	s.Batch(func() {
		a = start(0, 1)
		b = start(2, 3)
	})
	if a.comp == b.comp {
		t.Fatal("flows 0->1 and 2->3 already share a component")
	}
	mustPanic(t, "is in two components: it is carried in", func() {
		s.Batch(func() {
			// 0->3 shares its first link with 0->1 and its last with 2->3.
			s.dropMergeMarks(start(0, 3))
		})
	})
}

// TestHandoffChecks requires the checked build to refuse a hand-off that
// gave a flow another rate than the flow on its connection it joined, and
// a vacancy that outlived its recompute.
func TestHandoffChecks(t *testing.T) {
	_, _, s := newSim(t, 1, 8, 2)
	var rt *Route
	send := func(src, dst int) *Flow {
		f, err := s.StartFlow(route.Endpoint{Host: src, NIC: 0}, route.Endpoint{Host: dst, NIC: 0}, 1<<30,
			FlowOpts{SrcPort: 0, Route: rt})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	rt = establish(t, s, route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 1, NIC: 0}, 0, 50000)
	var a *Flow
	s.Batch(func() {
		a = send(0, 1)
		send(0, 1)
	})
	mustPanic(t, "share path", func() {
		s.Batch(func() {
			s.AbortFlow(a)
			if b := send(0, 1); b.comp != noComp {
				b.Rate *= 2
			} else {
				t.Error("the re-send on 0->1 took no vacancy")
			}
		})
	})

	_, _, s = newSim(t, 1, 8, 2)
	rt = establish(t, s, route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 1, NIC: 0}, 0, 50000)
	send(0, 1)
	s.vacancies = append(s.vacancies, vacancy{rt: rt})
	mustPanic(t, "outlived", s.checkComponents)
}

// TestHandoffOnChangedRoutePanics reassigns a connection's Route to
// another sport and path while a flow posted with it is in flight, against
// the rule Route states. The connection's next flow rides the new route
// and enters on the same access link, so an unchecked build would hand it
// the departed flow's place on the old path. The checked build must refuse
// the hand-off, naming the route's path and the flow's.
func TestHandoffOnChangedRoutePanics(t *testing.T) {
	_, _, s := newSim(t, 2, 4, 4)
	src, dst := route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 4, NIC: 0}
	rt := establish(t, s, src, dst, 0, 50000)
	send := func() *Flow {
		f, err := s.StartFlow(src, dst, 1<<30, FlowOpts{SrcPort: 0, Route: rt})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	a := send()
	for sp := uint16(50001); slices.Equal(rt.Path, a.Path); sp++ {
		if sp == 50100 {
			t.Fatal("no sport in 50001-50099 moves the cross-segment connection")
		}
		*rt = *establish(t, s, src, dst, 0, sp)
	}
	mustPanic(t, fmt.Sprintf("flow %d hands off on route %v but is on %v", a.ID, rt.Path, a.Path), func() {
		s.Batch(func() {
			s.AbortFlow(a)
			send()
		})
	})
}
