package health

import (
	"reflect"
	"slices"
	"testing"

	"hpn/internal/memo"
	"hpn/internal/metrics"
	"hpn/internal/netsim"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

// foldFlows is one round of two cross-segment incasts. The flows' sizes
// (see round) differ within one size class, so the larger flow of each
// pair speeds up once the smaller one completes, and the four rates differ
// by less than the degraded-throughput threshold.
var foldFlows = [][2]route.Endpoint{
	{{Host: 0, NIC: 0}, {Host: 4, NIC: 0}},
	{{Host: 1, NIC: 0}, {Host: 4, NIC: 0}},
	{{Host: 2, NIC: 1}, {Host: 6, NIC: 1}},
	{{Host: 3, NIC: 1}, {Host: 6, NIC: 1}},
}

// halfLog keeps a deep copy of every event the monitor consumes, in chunks
// of three, as a memo window holds a recorded half.
type halfLog struct{ chunks [][]netsim.Event }

func (*halfLog) Kinds() netsim.EventKind { return netsim.EvFlowRouted | netsim.EvFlowDone }

func (l *halfLog) FabricEvent(e *netsim.Event) {
	if n := len(l.chunks); n == 0 || len(l.chunks[n-1]) == 3 {
		l.chunks = append(l.chunks, nil)
	}
	c := *e
	c.Hops = slices.Clone(e.Hops)
	l.chunks[len(l.chunks)-1] = append(l.chunks[len(l.chunks)-1], c)
}

// foldRig is a monitor on a small fabric, driven one round of foldFlows at
// a time: through a memo recorder when rec is set, and logging the events
// the monitor consumes when log is.
type foldRig struct {
	t   *testing.T
	eng *sim.Engine
	net *netsim.Sim
	m   *Monitor
	rec *memo.Recorder
	log *halfLog
}

func newFoldRig(t *testing.T, memoOn, logged bool) *foldRig {
	top, err := topo.BuildHPN(topo.SmallHPN(2, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := netsim.New(eng, top)
	r := &foldRig{t: t, eng: eng, net: net, m: Attach(net)}
	if memoOn {
		r.rec = memo.Attach(net)
	}
	if logged {
		r.log = &halfLog{}
		net.Subscribe(r.log)
	}
	return r
}

// round runs one round of foldFlows: a replay on a fitting cache hit,
// otherwise a simulation that records the window. It returns the events
// the log took.
func (r *foldRig) round() [][]netsim.Event {
	h := netsim.NewHasher()
	h.Mix(r.net.StateHash64())
	fp := h.Sum()
	if w := r.rec.Lookup(fp); w != nil {
		r.rec.Replay(w, nil)
		return nil
	}
	if r.log != nil {
		r.log.chunks = nil
	}
	r.rec.BeginRecord(fp)
	for i, f := range foldFlows {
		if _, err := r.net.StartFlow(f[0], f[1], float64((4+i)<<20), netsim.FlowOpts{SrcPort: 0, Sport: uint16(2000 + i)}); err != nil {
			r.t.Fatal(err)
		}
	}
	r.eng.Run()
	r.rec.BeginLive(r.eng.Now(), 0)
	r.rec.EndLive()
	r.eng.Schedule(sim.Millisecond, func() {})
	r.eng.Run()
	r.rec.FinalizeRecord()
	if r.log == nil {
		return nil
	}
	return r.log.chunks
}

// detectorState is what re-delivering a half of routed and completed flows
// can change in a monitor.
type detectorState struct {
	classes   []classSnap
	groups    []groupState
	incidents []Incident
	tickArmed bool
}

type classSnap struct {
	exp, n int
	sum    metrics.ExactSum
	times  []sim.Time
}

func snapshot(m *Monitor) detectorState {
	st := detectorState{incidents: slices.Clone(m.incidents), tickArmed: m.tickArmed}
	for _, cs := range m.classList {
		st.classes = append(st.classes, classSnap{cs.exp, cs.n, cs.sum, slices.Clone(cs.times)})
	}
	for _, gs := range m.groupList {
		g := *gs
		g.counts = slices.Clone(gs.counts)
		g.seen = map[uint64]struct{}{}
		for w := range gs.seen {
			g.seen[w] = struct{}{}
		}
		st.groups = append(st.groups, g)
	}
	return st
}

// quadrupleMeans raises every class mean of m fourfold.
func quadrupleMeans(m *Monitor) {
	for _, cs := range m.classList {
		cs.sum = cs.sum.Plus(cs.sum)
		cs.sum = cs.sum.Plus(cs.sum)
	}
}

// TestFoldMatchesRedelivery feeds the same recorded half, again and again,
// to one monitor through Sim.Redeliver and to a twin through Summarize and
// ApplySummary, and requires identical class sums and counts, seen
// sets and incidents. The rounds run past the class baseline, so the
// later completions are judged.
func TestFoldMatchesRedelivery(t *testing.T) {
	live, fold := newFoldRig(t, false, true), newFoldRig(t, false, true)
	var half, twin [][]netsim.Event
	for i := 0; i < 6; i++ {
		half, twin = live.round(), fold.round()
	}
	if !reflect.DeepEqual(snapshot(live.m), snapshot(fold.m)) {
		t.Fatal("the twin monitors differ before any replay")
	}
	sum := fold.m.Summarize(twin)
	if sum == nil {
		t.Fatal("a steady half of routed and completed flows has no summary")
	}
	skip := uint64(1) << (len(live.net.Subscribers()) - 1) // the log
	var stamp netsim.Shift
	for k := 1; k <= 20; k++ {
		to := netsim.Shift{T: sim.Time(k) * sim.Second, ID: int64(k) * 100}
		from := stamp
		for _, c := range half {
			stamp = live.net.Redeliver(c, from, to, skip)
		}
		if !fold.m.ApplySummary(sum) {
			t.Fatalf("replay %d: the guard refused a steady half", k)
		}
		if a, b := snapshot(live.m), snapshot(fold.m); !reflect.DeepEqual(a, b) {
			t.Fatalf("replay %d: re-delivered and folded monitors differ\nre-delivered: %+v\nfolded:       %+v", k, a.classes, b.classes)
		}
	}
	if live.m.classList[0].n <= baselineFlows {
		t.Fatalf("class count %d never passed the %d-flow baseline", live.m.classList[0].n, baselineFlows)
	}
}

// TestFoldRefusesUnseenOrStalled requires no summary for a half whose
// routed tuple a group has not seen, or that routes a flow stalled.
func TestFoldRefusesUnseenOrStalled(t *testing.T) {
	r := newFoldRig(t, false, true)
	half := r.round()
	if r.m.Summarize(half) == nil {
		t.Fatal("a delivered steady half has no summary")
	}
	for _, tc := range []struct {
		name   string
		change func(e *netsim.Event)
	}{
		{"unseen tuple", func(e *netsim.Event) { e.Flow.Tuple ^= 1 }},
		{"stalled", func(e *netsim.Event) { e.Flow.Stalled = true }},
		{"other kind", func(e *netsim.Event) { e.Kind = netsim.EvFlowsDone }},
	} {
		c := slices.Clone(half[0])
		tc.change(&c[0])
		if sum := r.m.Summarize([][]netsim.Event{c, half[1]}); sum != nil {
			t.Errorf("%s: got a summary", tc.name)
		}
	}
}

// TestFoldGuardRefusesDegraded raises every class mean so that the
// window's completions would be judged degraded. ApplySummary must refuse
// without touching the monitor, and a memo run, whose replay then falls
// back to re-delivery, must open the same degraded-throughput incident as
// a memo-off run.
func TestFoldGuardRefusesDegraded(t *testing.T) {
	r := newFoldRig(t, false, true)
	half := r.round()
	sum := r.m.Summarize(half)
	quadrupleMeans(r.m)
	before := snapshot(r.m)
	if r.m.ApplySummary(sum) {
		t.Fatal("the guard folded completions at a quarter of the class mean")
	}
	if !reflect.DeepEqual(snapshot(r.m), before) {
		t.Fatal("a refused summary changed the monitor")
	}

	// Enough healthy rounds to pass the class baseline, then enough
	// degraded rounds to open the incident.
	on, off := newFoldRig(t, true, false), newFoldRig(t, false, false)
	for i := 0; i < baselineFlows/len(foldFlows); i++ {
		on.round()
		off.round()
	}
	if st := on.rec.Stats(); st.Folded == 0 || st.Redelivered != 0 {
		t.Fatalf("stats %+v: the healthy rounds were not all folded", st)
	}
	if n := off.m.classList[0].n; n < baselineFlows {
		t.Fatalf("class count %d short of the %d-flow baseline", n, baselineFlows)
	}
	quadrupleMeans(on.m)
	quadrupleMeans(off.m)
	for i := 0; i < degradedMinFlows/len(foldFlows); i++ {
		on.round()
		off.round()
	}
	if st := on.rec.Stats(); st.Redelivered == 0 {
		t.Fatalf("stats %+v: the degraded round was not re-delivered", st)
	}
	a, b := on.m.Incidents(), off.m.Incidents()
	if len(a) != 1 || a[0].Kind != KindThroughput {
		t.Fatalf("memo on: incidents %+v, want one degraded-throughput incident", a)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("incidents differ\nmemo on:  %+v\nmemo off: %+v", a, b)
	}
}

// A window half's summary keeps one entry per size class, however the
// half's classes interleave.
func TestWindowFoldKeepsEachClass(t *testing.T) {
	a, b := &classState{exp: 20}, &classState{exp: 30}
	var wf windowFold
	for _, cs := range []*classState{a, b, b, a, b} {
		wf.add(cs, 1e9)
	}
	if len(wf.classes) != 2 || wf.classes[0].n != 2 || wf.classes[1].n != 3 {
		t.Fatalf("summary %+v, want classes of 2 and 3 completions", wf.classes)
	}
}
