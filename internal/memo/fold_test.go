package memo_test

import (
	"reflect"
	"testing"

	"hpn/internal/health"
	"hpn/internal/netsim"
	"hpn/internal/route"
)

// steadyPhases is a two-phase workload whose flows share no link, so every
// completion runs at about the same rate and the health monitor folds
// every replayed half.
var steadyPhases = [2][][2]route.Endpoint{
	{{{Host: 0}, {Host: 1}}, {{Host: 2, NIC: 1}, {Host: 3, NIC: 1}}, {{Host: 0, NIC: 2}, {Host: 4, NIC: 2}}},
	{{{Host: 1, NIC: 3}, {Host: 0, NIC: 3}}, {{Host: 3, NIC: 4}, {Host: 2, NIC: 4}}, {{Host: 1, NIC: 5}, {Host: 5, NIC: 5}}},
}

// foldingLog is an eventLog that folds the first budget window halves it
// is offered a summary of and refuses every later one. A folded half is
// logged as zero events, one per event it stands for, so the log lines up
// event for event with a memo-off run's.
type foldingLog struct {
	eventLog
	budget int
}

func (l *foldingLog) Summarize(evs [][]netsim.Event) any {
	n := 0
	for _, c := range evs {
		n += len(c)
	}
	return n
}

func (l *foldingLog) ApplySummary(sum any) bool {
	if l.budget == 0 {
		return false
	}
	l.budget--
	l.evs = append(l.evs, make([]netsim.Event, sum.(int))...)
	return true
}

// TestRefusedFoldDeliversLiveStream has a Summarizer fold the first
// halves of a run's replays and then refuse. It is the only subscriber
// besides the recorder, so the halves it folded were never re-stamped and
// carry the stamps of an earlier replay, or of the recording, when they
// are finally re-delivered. Every event it is handed must still equal the
// memo-off run's, field by field.
func TestRefusedFoldDeliversLiveStream(t *testing.T) {
	const iters, budget = 20, 5
	on, off := newRun(t, true, periodicPhases), newRun(t, false, periodicPhases)
	onLog, offLog := &foldingLog{budget: budget}, &foldingLog{}
	on.net.Subscribe(onLog)
	off.net.Subscribe(offLog)
	for i := 0; i < iters; i++ {
		on.step()
		off.step()
	}
	st := on.rec.Stats()
	if st.Folded != budget || st.Redelivered != 2*st.Replayed-budget || st.Replayed < iters/2 {
		t.Fatalf("stats %+v: want %d halves folded and the other %d halves of the replays re-delivered",
			st, budget, 2*st.Replayed-budget)
	}
	a, b := onLog.evs, offLog.evs
	if len(a) != len(b) {
		t.Fatalf("%d events with memo on, %d off", len(a), len(b))
	}
	delivered := 0
	for i := range a {
		if a[i].Kind == 0 {
			continue
		}
		delivered++
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("event %d differs\nmemo on:  %+v\nmemo off: %+v", i, a[i], b[i])
		}
	}
	if delivered == len(a) {
		t.Fatal("no event was folded")
	}
}

// TestFoldAllocatesNothing replays cached windows the health monitor
// folds, and requires the replay to allocate nothing, as
// TestReplayAllocatesNothing does for one it re-delivers.
func TestFoldAllocatesNothing(t *testing.T) {
	p := newRun(t, true, steadyPhases)
	p.mon = health.Attach(p.net)
	for p.rec.Stats().Replayed < 4 {
		if p.it > 8 {
			t.Fatal("fewer than 4 replays after 8 iterations")
		}
		p.step()
	}
	w := p.rec.Lookup(p.fingerprint())
	if w == nil {
		t.Fatal("no window cached")
	}
	before := p.rec.Stats().Folded
	if n := testing.AllocsPerRun(100, func() { p.rec.Replay(w, nil) }); n != 0 {
		t.Fatalf("Replay allocates %v objects per call, want 0", n)
	}
	if st := p.rec.Stats(); st.Folded-before != 2*101 || st.Redelivered != 0 {
		t.Fatalf("stats %+v: the health monitor did not fold every half", st)
	}
}
