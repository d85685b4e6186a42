package netsim

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"hpn/internal/prof"
	"hpn/internal/route"
	"hpn/internal/sim"
)

// streamRecorder keeps every event it is offered, copying the slices that
// alias simulator scratch as the Subscriber contract requires.
type streamRecorder struct {
	kinds EventKind
	evs   []Event
}

func (r *streamRecorder) Kinds() EventKind { return r.kinds }

func (r *streamRecorder) FabricEvent(e *Event) {
	c := *e
	c.Hops = slices.Clone(e.Hops)
	c.HopStats = slices.Clone(e.HopStats)
	r.evs = append(r.evs, c)
}

// failRerouteRecover runs one long flow through fail -> reroute -> recover
// -> complete on a dual-ToR fabric: its access cable fails at 100ms, the
// reroute pass a convergence delay later moves it to the other port, the
// cable recovers at 2s (a second, empty reroute pass follows), and the flow
// completes seconds later. The flow is pinned: it is read after completion.
func failRerouteRecover(t *testing.T, s *Sim, eng *sim.Engine) *Flow {
	t.Helper()
	f, err := s.StartFlow(route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 4, NIC: 0}, 1<<37, FlowOpts{SrcPort: 0})
	if err != nil {
		t.Fatal(err)
	}
	f.Pin()
	access := f.Path[0]
	eng.ScheduleAt(100*sim.Millisecond, func() { s.FailCable(access) })
	eng.ScheduleAt(2*sim.Second, func() { s.RecoverCable(access) })
	eng.Run()
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	return f
}

func TestEventStreamContract(t *testing.T) {
	eng, _, s := newSim(t, 2, 4, 4)
	rec := &streamRecorder{kinds: ^EventKind(0)}
	s.Subscribe(rec)
	f := failRerouteRecover(t, s, eng)

	want := []EventKind{EvFlowRouted, EvLinkDown, EvFlowRouted, EvReroute, EvLinkUp, EvReroute, EvFlowDone, EvFlowsDone}
	var got []EventKind
	for _, e := range rec.evs {
		got = append(got, e.Kind)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("event kinds %v, want %v", got, want)
	}
	routed, repathed, done := rec.evs[0], rec.evs[2], rec.evs[6]
	if len(routed.Hops) == 0 || len(repathed.Hops) == 0 {
		t.Fatal("EvFlowRouted carries no hop decisions although a subscriber wants it")
	}
	if routed.Flow.Port != 0 || repathed.Flow.Port != 1 || f.Port != 1 {
		t.Fatalf("ports routed/repathed/final = %d/%d/%d, want 0/1/1", routed.Flow.Port, repathed.Flow.Port, f.Port)
	}
	if r := rec.evs[3]; r.Count != 1 || r.StillStalled != 0 {
		t.Fatalf("failover reroute pass counts %d/%d, want 1 re-pathed / 0 stalled", r.Count, r.StillStalled)
	}
	if done.Flow.ID != f.ID || done.At != f.DoneAt || done.Flow.PathLen != len(f.Path) || !done.Flow.CrossedAgg {
		t.Fatalf("EvFlowDone state %+v does not match the completed flow", done.Flow)
	}
	if b := rec.evs[7]; b.Count != 1 || b.Slowest != f.DoneAt-f.StartedAt {
		t.Fatalf("harvest event %+v, want one flow with the flow's FCT", b)
	}

	// Events hold values, not the flow: mutating it afterwards changes
	// nothing recorded.
	before := make([]Event, len(rec.evs))
	copy(before, rec.evs)
	f.ID, f.Bits, f.Port, f.Stalled, f.Path = -1, 0, 7, true, nil
	f.Tuple.SrcPort++
	f.StartedAt, f.DoneAt = 0, 0
	if !reflect.DeepEqual(before, rec.evs) {
		t.Fatal("recorded events changed when the flow was mutated")
	}

	// The subscriber list is fixed once traffic starts.
	defer func() {
		if recover() == nil {
			t.Fatal("Subscribe after the first StartFlow did not panic")
		}
	}()
	s.Subscribe(&streamRecorder{kinds: EvFlowDone})
}

// A Subscribe refused after the first flow must leave the list as it was:
// a caller that recovers from the panic keeps a working stream, and every
// subscriber still keeps its interest mask.
func TestSubscribeAfterStartLeavesStreamIntact(t *testing.T) {
	eng, _, s := newSim(t, 2, 4, 4)
	rec := &streamRecorder{kinds: EvTopology}
	s.Subscribe(rec)
	f, err := s.StartFlow(route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 4, NIC: 0}, 1<<30, FlowOpts{SrcPort: 0})
	if err != nil {
		t.Fatal(err)
	}
	n := len(s.Subscribers())
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Subscribe after the first StartFlow did not panic")
			}
		}()
		s.Subscribe(&streamRecorder{kinds: ^EventKind(0)})
	}()
	if len(s.Subscribers()) != n || len(s.subKinds) != n {
		t.Fatalf("refused Subscribe left %d subscribers and %d masks, want %d", len(s.Subscribers()), len(s.subKinds), n)
	}
	s.FailCable(f.Path[0])
	if len(rec.evs) != 1 || rec.evs[0].Kind != EvLinkDown {
		t.Fatalf("after a refused Subscribe the old subscriber got %v, want one link_down", rec.evs)
	}
	eng.Run()
}

// AttachProfiler points the one flight subscriber at the recorder; calling
// it again (the shard profiler re-attach) must not add a second one.
func TestAttachProfilerTwiceNotesOnce(t *testing.T) {
	eng, _, s := newSim(t, 2, 4, 4)
	fl := prof.NewFlight(0)
	s.AttachProfiler(prof.New(), fl)
	s.AttachProfiler(prof.New(), fl)
	failRerouteRecover(t, s, eng)

	var b strings.Builder
	if err := fl.WriteTSV(&b); err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n")[1:] {
		kinds = append(kinds, strings.Split(line, "\t")[2])
	}
	want := []string{"link_down", "reroute", "link_up", "reroute", "flows_done"}
	if !slices.Equal(kinds, want) {
		t.Fatalf("flight rows %v, want one per event %v", kinds, want)
	}
}

// A flow-log-only run consumes EvFlowDone alone, so routing must stay on
// the plain path lookup without collecting hash decisions.
func TestFlowLogOnlyCollectsNoHops(t *testing.T) {
	eng, _, s := newSim(t, 2, 4, 4)
	s.EnableFlowLog()
	failRerouteRecover(t, s, eng)
	if len(s.FlowLog()) != 1 {
		t.Fatalf("flow log holds %d records, want 1", len(s.FlowLog()))
	}
	if s.want&EvFlowRouted != 0 || s.routeHops != nil {
		t.Fatal("hop decisions collected with no EvFlowRouted subscriber")
	}
}

// Redeliver hands a recorded event to every interested subscriber outside
// the skip set, returns the shift the events then carry, and leaves the
// events unstamped when every interested subscriber is skipped.
func TestRedeliverSkipSet(t *testing.T) {
	_, _, s := newSim(t, 2, 4, 4)
	a, b := &streamRecorder{kinds: EvFlowDone}, &streamRecorder{kinds: EvFlowDone}
	s.Subscribe(a)
	s.Subscribe(b)
	bitA, bitB := uint64(1)<<(len(s.Subscribers())-2), uint64(1)<<(len(s.Subscribers())-1)
	evs := []Event{{Kind: EvFlowDone, At: 5, Flow: FlowState{ID: 3, StartedAt: 2}}}
	from, to := Shift{T: 1, ID: 1}, Shift{T: 11, ID: 2}

	if got := s.Redeliver(evs, from, to, bitA|bitB); got != from || evs[0].At != 5 || len(a.evs)+len(b.evs) != 0 {
		t.Fatalf("all skipped: returned %+v, event at %v, %d+%d delivered; want %+v, 5, none",
			got, evs[0].At, len(a.evs), len(b.evs), from)
	}
	if got := s.Redeliver(evs, from, to, bitA); got != to || len(a.evs) != 0 || len(b.evs) != 1 {
		t.Fatalf("a skipped: returned %+v, %d+%d delivered; want %+v, 0+1", got, len(a.evs), len(b.evs), to)
	}
	if e := b.evs[0]; e.At != 15 || e.Flow.StartedAt != 12 || e.Flow.ID != 4 {
		t.Fatalf("re-stamped event %+v, want At 15, StartedAt 12, ID 4", e)
	}
}

// The skip set has one bit per subscriber, so a 65th subscriber is refused.
func TestSubscribeCapsSubscribers(t *testing.T) {
	_, _, s := newSim(t, 2, 4, 4)
	for len(s.Subscribers()) < 64 {
		s.Subscribe(&streamRecorder{})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a 65th subscriber was accepted")
		}
	}()
	s.Subscribe(&streamRecorder{})
}
