package memo

import (
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
