package memo_test

import (
	"reflect"
	"testing"

	"hpn/internal/health"
	"hpn/internal/inband"
	"hpn/internal/memo"
	"hpn/internal/netsim"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/telemetry"
	"hpn/internal/topo"
)

// eventLog keeps a deep copy of every event it is offered. Empty slices
// are kept as nil, so a replayed event (whose recorded slices memo may
// share or drop when empty) compares equal to a live one.
type eventLog struct{ evs []netsim.Event }

func (*eventLog) Kinds() netsim.EventKind {
	return netsim.EvFlowRouted | netsim.EvFlowDone | netsim.EvFlowsDone | netsim.EvPathFlush
}

func (l *eventLog) FabricEvent(e *netsim.Event) {
	c := *e
	c.Hops = append([]route.HopDecision(nil), e.Hops...)
	c.HopStats = append([]inband.HopStat(nil), e.HopStats...)
	l.evs = append(l.evs, c)
}

// periodicRun is a two-phase periodic workload on a two-pod fabric with
// the health monitor on, driven through a memo recorder when one is
// attached. Each phase is an incast plus one cross-pod flow, as in the exit
// round-trip test. A logged run also turns in-band telemetry on and
// subscribes an eventLog.
type periodicRun struct {
	t      *testing.T
	eng    *sim.Engine
	net    *netsim.Sim
	rec    *memo.Recorder
	mon    *health.Monitor
	log    *eventLog
	phases [2][][2]route.Endpoint
	it     int
}

func newPeriodicRun(t *testing.T, memoOn, logged bool) *periodicRun {
	t.Helper()
	p := newRun(t, memoOn, periodicPhases)
	p.mon = health.Attach(p.net)
	if logged {
		p.net.EnableInband(0)
		p.log = &eventLog{}
		p.net.Subscribe(p.log)
	}
	return p
}

// newRun is a periodicRun of the given phases with no subscriber but the
// recorder, when memoOn, attached.
func newRun(t *testing.T, memoOn bool, phases [2][][2]route.Endpoint) *periodicRun {
	t.Helper()
	cfg := topo.SmallHPN(1, 4, 4)
	cfg.Pods = 2
	top, err := topo.BuildHPN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	s := netsim.New(eng, top)
	s.AttachTelemetry(nil, telemetry.NewRegistry(), "")
	p := &periodicRun{t: t, eng: eng, net: s, phases: phases}
	if memoOn {
		p.rec = memo.Attach(s)
	}
	return p
}

var periodicPhases = [2][][2]route.Endpoint{
	{{{Host: 0}, {Host: 2}}, {{Host: 1}, {Host: 2}}, {{Host: 0, NIC: 1}, {Host: 4, NIC: 1}}},
	{{{Host: 1, NIC: 3}, {Host: 3, NIC: 3}}, {{Host: 2, NIC: 3}, {Host: 3, NIC: 3}}, {{Host: 3, NIC: 5}, {Host: 7, NIC: 5}}},
}

// fingerprint keys the next iteration's window.
func (p *periodicRun) fingerprint() uint64 {
	h := netsim.NewHasher()
	h.Mix(uint64(p.it % 2))
	h.Mix(p.net.StateHash64())
	return h.Sum()
}

// step runs one iteration: a replay on a fitting cache hit, otherwise a
// simulation that records the window.
func (p *periodicRun) step() {
	fp := p.fingerprint()
	if w := p.rec.Lookup(fp); w != nil {
		p.rec.Replay(w, nil)
	} else {
		p.rec.BeginRecord(fp)
		phase := p.it % 2
		for j, f := range p.phases[phase] {
			if _, err := p.net.StartFlow(f[0], f[1], 4<<20,
				netsim.FlowOpts{SrcPort: 0, Sport: uint16(1000 + 10*phase + j)}); err != nil {
				p.t.Fatal(err)
			}
		}
		p.eng.Run()
		p.rec.BeginLive(p.eng.Now(), 0)
		p.rec.EndLive()
		p.eng.Schedule(sim.Millisecond, func() {})
		p.eng.Run()
		p.rec.FinalizeRecord()
	}
	p.it++
}

// TestReplayDeliversLiveStream requires a replayed run to hand every
// other subscriber the same event stream, field by field, as a simulated
// one. The golden suite checks artifacts only, so a subscriber that writes
// none (or a field no artifact shows) is checked only here.
func TestReplayDeliversLiveStream(t *testing.T) {
	const iters = 20
	on, off := newPeriodicRun(t, true, true), newPeriodicRun(t, false, true)
	for i := 0; i < iters; i++ {
		on.step()
		off.step()
	}
	if st := on.rec.Stats(); st.Replayed < iters/2 {
		t.Fatalf("only %d of %d iterations replayed (%+v): the stream is barely exercised", st.Replayed, iters, st)
	}
	a, b := on.log.evs, off.log.evs
	if len(a) != len(b) {
		t.Fatalf("%d events with memo on, %d off", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("event %d differs\nmemo on:  %+v\nmemo off: %+v", i, a[i], b[i])
		}
	}
	if !reflect.DeepEqual(on.mon.Incidents(), off.mon.Incidents()) {
		t.Fatalf("health incidents differ\nmemo on:  %+v\nmemo off: %+v", on.mon.Incidents(), off.mon.Incidents())
	}
}

// TestReplayAllocatesNothing replays a cached window, with the health
// monitor subscribed, and requires the whole replay — re-delivery of both
// halves and the exit — to allocate nothing: a long memoized run replays
// thousands of windows.
func TestReplayAllocatesNothing(t *testing.T) {
	p := newPeriodicRun(t, true, false)
	var w *memo.Window
	for w == nil {
		if p.it > 8 {
			t.Fatal("no window cached after 8 iterations")
		}
		p.step()
		w = p.rec.Lookup(p.fingerprint())
	}
	if n := testing.AllocsPerRun(100, func() { p.rec.Replay(w, nil) }); n != 0 {
		t.Fatalf("Replay allocates %v objects per call, want 0", n)
	}
}
