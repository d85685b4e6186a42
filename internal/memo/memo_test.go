package memo

import (
	"slices"
	"testing"

	"hpn/internal/netsim"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

func newNet(t *testing.T) (*sim.Engine, *topo.Topology, *netsim.Sim) {
	t.Helper()
	top, err := topo.BuildHPN(topo.SmallHPN(1, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	return eng, top, netsim.New(eng, top)
}

func TestStateHashReactsToFabric(t *testing.T) {
	_, top, s := newNet(t)
	h0 := s.StateHash64()
	if s.StateHash64() != h0 {
		t.Fatal("state hash is not stable over an untouched simulator")
	}
	lk := top.AccessLink(0, 0, 0)
	s.FailCable(lk)
	hDown := s.StateHash64()
	if hDown == h0 {
		t.Fatal("failing a cable did not change the state hash")
	}
	s.RecoverCable(lk)
	if s.StateHash64() == hDown {
		t.Fatal("recovering the cable did not change the state hash")
	}
}

// record drives one empty but valid window through the recorder.
func record(t *testing.T, eng *sim.Engine, r *Recorder, fp uint64) {
	t.Helper()
	if w := r.Lookup(fp); w != nil {
		t.Fatal("fingerprint already cached")
	}
	r.BeginRecord(fp)
	r.BeginLive(eng.Now(), 10*sim.Millisecond)
	r.EndLive()
	r.FinalizeRecord()
}

func TestRecordLookupInvalidate(t *testing.T) {
	eng, top, s := newNet(t)
	r := Attach(s)
	if RecorderOf(s) != r {
		t.Fatal("RecorderOf does not find the attached recorder")
	}

	const fp = 42
	record(t, eng, r, fp)
	if len(r.cache) != 1 {
		t.Fatalf("cache holds %d windows after a valid recording, want 1", len(r.cache))
	}
	if w := r.Lookup(fp); w == nil {
		t.Fatal("valid recorded window does not hit")
	}
	st := r.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}

	// Any fabric transition drops the cache.
	s.FailCable(top.AccessLink(0, 0, 0))
	if len(r.cache) != 0 {
		t.Fatal("link failure did not drop the memo cache")
	}
	if r.Stats().Invalidations == 0 {
		t.Fatal("link failure counted no invalidation")
	}
	if w := r.Lookup(fp); w != nil {
		t.Fatal("stale window survives a fabric transition")
	}
}

func TestBeginRecordDeclinesWithActiveFlows(t *testing.T) {
	eng, _, s := newNet(t)
	r := Attach(s)
	if _, err := s.StartFlow(route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 1, NIC: 0},
		1<<20, netsim.FlowOpts{SrcPort: -1}); err != nil {
		t.Fatal(err)
	}

	const fp = 7
	record(t, eng, r, fp)
	if len(r.cache) != 0 {
		t.Fatal("window recorded while flows were in flight")
	}
	eng.Run() // drain the flow; the window is now clean
	record(t, eng, r, fp)
	if len(r.cache) != 1 {
		t.Fatal("clean window after the flows drained was not recorded")
	}
}

func TestFinalizeDiscardsOnMidWindowSchedule(t *testing.T) {
	eng, _, s := newNet(t)
	r := Attach(s)

	r.BeginRecord(3)
	// An event armed mid-window means replay would skip real work:
	// the recording must be discarded, not cached.
	eng.Schedule(sim.Millisecond, func() {})
	r.BeginLive(eng.Now(), 10*sim.Millisecond)
	r.EndLive()
	r.FinalizeRecord()
	if len(r.cache) != 0 {
		t.Fatal("window with a mid-window scheduled event was cached")
	}
}

func TestLookupBlockedByPendingEvent(t *testing.T) {
	eng, _, s := newNet(t)
	r := Attach(s)

	const fp = 11
	record(t, eng, r, fp)
	if len(r.cache) != 1 {
		t.Fatal("setup: window not recorded")
	}
	// A pending event inside (or at the exact end of) the would-be window
	// must block replay: in a live run it would fire first.
	eng.Schedule(0, func() {})
	if w := r.Lookup(fp); w != nil {
		t.Fatal("replay allowed over a pending event")
	}
	if r.Stats().Blocked == 0 {
		t.Fatal("blocked lookup not counted")
	}
}

// A fabric transition aborts the recording in progress even when the
// window's other guards would pass it: the failure, the recovery and
// their reroutes all land inside the window, so its pending-event
// population ends as it began.
func TestTransitionAbortsRecording(t *testing.T) {
	eng, top, s := newNet(t)
	r := Attach(s)
	r.BeginRecord(5)
	lk := top.AccessLink(0, 0, 0)
	s.FailCable(lk)
	s.RecoverCable(lk)
	eng.Run()
	r.BeginLive(eng.Now(), 0)
	r.EndLive()
	r.FinalizeRecord()
	if len(r.cache) != 0 {
		t.Fatal("a window with a link flap inside it was cached")
	}
}

// The cache holds at most maxWindows windows; past that, BeginRecord
// declines.
func TestCacheHoldsAtMostMaxWindows(t *testing.T) {
	eng, _, s := newNet(t)
	r := Attach(s)
	for fp := uint64(0); fp < maxWindows; fp++ {
		record(t, eng, r, fp)
	}
	if len(r.cache) != maxWindows {
		t.Fatalf("cache holds %d windows, want %d", len(r.cache), maxWindows)
	}
	if r.BeginRecord(maxWindows); r.rec != nil {
		t.Fatal("a full cache began another recording")
	}
}

// flowDone subscribes to completions, so the recorder captures them.
type flowDone struct{}

func (flowDone) Kinds() netsim.EventKind   { return netsim.EvFlowDone }
func (flowDone) FabricEvent(*netsim.Event) {}

// A cached window holds each half in full chunks, the last cut to its
// length, and a connection's repeated hop decisions once.
func TestRecordedWindowIsCompact(t *testing.T) {
	eng, _, s := newNet(t)
	s.Subscribe(flowDone{})
	r := Attach(s)
	r.BeginRecord(9)
	for i := 0; i < 3; i++ {
		if _, err := s.StartFlow(route.Endpoint{Host: i, NIC: 0}, route.Endpoint{Host: 3, NIC: i},
			1<<20, netsim.FlowOpts{SrcPort: 0, Sport: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	r.BeginLive(eng.Now(), 0)
	r.EndLive()
	r.FinalizeRecord()
	w := r.cache[9]
	if w == nil {
		t.Fatal("window not cached")
	}
	if h := w.ev[0]; len(h) != 1 || len(h[0]) != 3 || cap(h[0]) != 3 {
		t.Fatalf("3 events held in %d chunks, the last of length %d and capacity %d; want one of 3",
			len(h), len(h[len(h)-1]), cap(h[len(h)-1]))
	}

	var rec recording
	hops := []route.HopDecision{{Link: 1}, {Link: 2}}
	a := rec.internHops(7, hops)
	if b := rec.internHops(7, slices.Clone(hops)); &a[0] != &b[0] || cap(a) != len(a) {
		t.Fatal("a tuple's repeated hop decisions are not shared, or the shared copy has room to grow")
	}
	if c := rec.internHops(7, hops[:1]); &c[0] == &a[0] {
		t.Fatal("different hop decisions share a copy")
	}
}

// BeginRecord abandons a recording left open: a window it declines
// records nothing.
func TestBeginRecordAbandonsOpenRecording(t *testing.T) {
	eng, _, s := newNet(t)
	r := Attach(s)
	record(t, eng, r, 1)
	if r.BeginRecord(2); r.rec == nil {
		t.Fatal("setup: recording not begun")
	}
	if r.BeginRecord(1); r.rec != nil {
		t.Fatal("a declined BeginRecord left the open recording capturing")
	}
}
