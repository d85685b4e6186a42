package prof

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var p *Profiler
	ph := p.Phase("x", "")
	if ph != nil {
		t.Fatalf("nil profiler returned non-nil phase")
	}
	tk := ph.Begin()
	ph.End(tk)
	ph.Add(5)
	if p.Snapshot() != nil {
		t.Fatalf("nil profiler Snapshot != nil")
	}

	var f *Flight
	f.Note(1, "k", "s", 0, 0)
	f.Mark(2, "r")
	var sb strings.Builder
	if err := f.WriteTSV(&sb); err != nil {
		t.Fatalf("nil flight WriteTSV: %v", err)
	}
	if sb.String() != "window\tts_ns\tkind\tsubject\tv1\tv2\n" {
		t.Fatalf("nil flight TSV = %q", sb.String())
	}
}

func TestPhaseAccumulation(t *testing.T) {
	p := New()
	ph := p.Phase("sim/run", "event loop")
	if p.Phase("sim/run", "other help") != ph {
		t.Fatalf("Phase not idempotent per name")
	}
	tk := ph.Begin()
	time.Sleep(time.Millisecond)
	ph.End(tk)
	ph.Add(41)
	ph.Add(0) // zero adds are dropped

	snap := p.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("Snapshot len = %d, want 1", len(snap))
	}
	st := snap[0]
	if st.Name != "sim/run" || st.Count != 42 {
		t.Fatalf("stat = %+v, want name sim/run count 42", st)
	}
	if st.WallNS <= 0 {
		t.Fatalf("timed phase recorded no wall time")
	}
}

func TestSnapshotSortedAndZeroSkipped(t *testing.T) {
	p := New()
	p.Phase("zzz/never", "") // registered, never hit: must not appear
	for _, name := range []string{"b/two", "a/one", "c/three"} {
		p.Phase(name, "").Add(1)
	}
	var got []string
	for _, st := range p.Snapshot() {
		got = append(got, st.Name)
	}
	want := []string{"a/one", "b/two", "c/three"}
	if len(got) != len(want) {
		t.Fatalf("snapshot names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot names = %v, want %v", got, want)
		}
	}
}

// TestShardedCountsDeterministic: the pod simulators of a sharded run add
// into one profiler from concurrent windows, through both Add and End, and
// no occurrence may be lost.
func TestShardedCountsDeterministic(t *testing.T) {
	p := New()
	ph := p.Phase("netsim/heap_ops", "")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				ph.Add(3)
				ph.End(ph.Begin())
			}
		}()
	}
	wg.Wait()
	if got := p.Snapshot()[0].Count; got != 16000 {
		t.Fatalf("concurrent count = %d, want 16000", got)
	}
}

func TestProfileRoundTrip(t *testing.T) {
	p := New()
	p.Phase("sim/run", "event loop").Add(9)
	var sb strings.Builder
	if err := p.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	prof, err := ParseProfile(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ParseProfile: %v", err)
	}
	if len(prof.Phases) != 1 || prof.Phases[0].Name != "sim/run" || prof.Phases[0].Count != 9 {
		t.Fatalf("round trip = %+v", prof.Phases)
	}
}

func TestParseProfileRejects(t *testing.T) {
	for name, doc := range map[string]string{
		"no phases":      `{"phases":[]}`,
		"trailing data":  `{"phases":[{"name":"a","count":1}]} x`,
		"second doc":     `{"phases":[{"name":"a","count":1}]} {}`,
		"empty name":     `{"phases":[{"name":"","count":1}]}`,
		"duplicate name": `{"phases":[{"name":"a","count":1},{"name":"a","count":2}]}`,
		"negative count": `{"phases":[{"name":"a","count":-1}]}`,
		"negative wall":  `{"phases":[{"name":"a","count":1,"wall_ns":-5}]}`,
		"negative alloc": `{"phases":[{"name":"a","count":1,"allocs":-5}]}`,
	} {
		if _, err := ParseProfile(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: ParseProfile accepted %s", name, doc)
		}
	}
	if _, err := ParseProfile(strings.NewReader(`{"phases":[{"name":"a","count":1}]}` + "\n\n")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

func TestReport(t *testing.T) {
	p := &Profile{GoMaxProcs: 4, Phases: []PhaseStat{
		{Name: "memo/lookup", Count: 10, WallNS: 1e6},
		{Name: "sim/dispatch", Count: 230},
		{Name: "sim/run", Count: 1, WallNS: 9e6},
	}}
	var sb strings.Builder
	Report(p, &sb)
	out := sb.String()
	runIdx := strings.Index(out, "sim/run")
	lookupIdx := strings.Index(out, "memo/lookup")
	if runIdx < 0 || lookupIdx < 0 || runIdx > lookupIdx {
		t.Fatalf("report not wall-descending:\n%s", out)
	}
	if !strings.Contains(out, "90.0%") {
		t.Fatalf("share column wrong:\n%s", out)
	}
	// A count-only phase shows its count and "-" for wall, ns/op and share.
	var dispatch string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "sim/dispatch") {
			dispatch = line
		}
	}
	if got, want := strings.Fields(dispatch), []string{"sim/dispatch", "230", "-", "-", "-", "0"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("count-only row = %q, want fields %q\n%s", dispatch, want, out)
	}
}

func TestFlightRingAndWindows(t *testing.T) {
	f := NewFlight(4)
	for i := 0; i < 6; i++ {
		f.Note(int64(i), "ev", "s", int64(i), 0)
	}
	f.Mark(100, "incident:x")
	if len(f.windows) != 1 {
		t.Fatalf("windows = %d, want 1", len(f.windows))
	}
	var sb strings.Builder
	if err := f.WriteTSV(&sb); err != nil {
		t.Fatalf("WriteTSV: %v", err)
	}
	out := sb.String()
	// Ring cap 4 after 6 notes: oldest surviving event is ts 2.
	if strings.Contains(out, "w01\t1\tev") || !strings.Contains(out, "w01\t2\tev") {
		t.Fatalf("ring eviction wrong:\n%s", out)
	}
	if !strings.Contains(out, "w01\t100\tmark\tincident:x\t4\t6\n") {
		t.Fatalf("mark row missing or wrong:\n%s", out)
	}
	// Tail repeats the live ring after the windows.
	if !strings.Contains(out, "tail\t5\tev\ts\t5\t0\n") {
		t.Fatalf("tail missing:\n%s", out)
	}

	// Byte-identical across writes (same state, same bytes).
	var sb2 strings.Builder
	if err := f.WriteTSV(&sb2); err != nil {
		t.Fatalf("WriteTSV: %v", err)
	}
	if sb2.String() != out {
		t.Fatalf("WriteTSV not reproducible")
	}
}

func TestFlightWindowCap(t *testing.T) {
	f := NewFlight(2)
	f.Note(1, "ev", "", 0, 0)
	for i := 0; i < maxFlightWindows+3; i++ {
		f.Mark(int64(i), "r")
	}
	if len(f.windows) != maxFlightWindows {
		t.Fatalf("windows = %d, want %d", len(f.windows), maxFlightWindows)
	}
	var sb strings.Builder
	if err := f.WriteTSV(&sb); err != nil {
		t.Fatalf("WriteTSV: %v", err)
	}
	if !strings.Contains(sb.String(), "marks_dropped\t\t3\t") {
		t.Fatalf("dropped-marks row missing:\n%s", sb.String())
	}
}
