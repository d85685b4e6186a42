package health

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hpn/internal/hashing"
	"hpn/internal/netsim"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

// newMonitor attaches a monitor to a fresh small fabric. dualToR=false
// builds the single-ToR ablation where an access failure blackholes flows.
func newMonitor(t *testing.T, dualToR bool) (*sim.Engine, *netsim.Sim, *Monitor) {
	t.Helper()
	cfg := topo.SmallHPN(2, 4, 4)
	if !dualToR {
		cfg.DualToR = false
		cfg.DualPlane = false
	}
	top, err := topo.BuildHPN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := netsim.New(eng, top)
	return eng, net, Attach(net)
}

// Four transitions inside the window open a storm anchored at the first
// transition; a quiet window closes it; a later storm is a new incident.
func TestFlapDetectorLifecycle(t *testing.T) {
	_, _, m := newMonitor(t, true)
	for i := sim.Time(0); i < 4; i++ {
		m.noteTransition(i*sim.Second, "torX<->aggY", i%2 == 0)
	}
	incs := m.Incidents()
	if len(incs) != 1 || incs[0].Kind != KindFlap || !incs[0].Open {
		t.Fatalf("4 transitions in window: incidents %+v, want one open flap-storm", incs)
	}
	if incs[0].Start != 0 || incs[0].Peak != 4 || incs[0].Events != 4 {
		t.Fatalf("incident %+v, want Start=0 Peak=4 Events=4", incs[0])
	}

	// Two more transitions extend the same incident, no second one opens.
	m.noteTransition(4*sim.Second, "torX<->aggY", true)
	m.noteTransition(5*sim.Second, "torX<->aggY", false)
	if len(m.Incidents()) != 1 || m.Incidents()[0].Events != 6 {
		t.Fatalf("storm continuation: %+v, want 1 incident with 6 events", m.Incidents())
	}

	// Quiet for a full window: the sweep closes it.
	m.sweepFlap(16 * sim.Second)
	if inc := m.Incidents()[0]; inc.Open || inc.End != 16*sim.Second {
		t.Fatalf("quiet window did not close the storm: %+v", inc)
	}

	// A fresh storm on the same subject is a distinct incident.
	for i := sim.Time(0); i < 4; i++ {
		m.noteTransition(30*sim.Second+i*sim.Second, "torX<->aggY", i%2 == 0)
	}
	incs = m.Incidents()
	if len(incs) != 2 || !incs[1].Open || incs[1].ID != 2 || incs[1].Events != 4 {
		t.Fatalf("second storm: %+v, want a second open incident with Events=4", incs)
	}
}

// Transitions spread wider than the window never accumulate to a storm.
func TestFlapDetectorSpreadStaysQuiet(t *testing.T) {
	_, _, m := newMonitor(t, true)
	for i := sim.Time(0); i < 8; i++ {
		m.noteTransition(i*6*sim.Second, "torX<->aggY", i%2 == 0)
	}
	if len(m.Incidents()) != 0 {
		t.Fatalf("spread transitions opened %+v", m.Incidents())
	}
}

// An access failure on the single-ToR ablation blackholes the flow; the
// stall incident opens after stallAfter (backdated to the stall's start)
// and closes once the recovery reroute unsticks it.
func TestStallDetectorLifecycle(t *testing.T) {
	eng, net, m := newMonitor(t, false)
	f, err := net.StartFlow(route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 4, NIC: 0},
		1<<40, netsim.FlowOpts{SrcPort: 0})
	if err != nil {
		t.Fatal(err)
	}
	access := f.Path[0] // the path empties while the flow is stalled
	eng.ScheduleAt(1*sim.Second, func() { net.FailCable(access) })
	eng.ScheduleAt(6*sim.Second, func() { net.RecoverCable(access) })
	eng.RunUntil(9 * sim.Second)

	incs := m.Incidents()
	if len(incs) != 1 || incs[0].Kind != KindStall {
		t.Fatalf("incidents %+v, want exactly one stall", incs)
	}
	inc := incs[0]
	if inc.Open {
		t.Fatalf("stall incident still open after recovery: %+v", inc)
	}
	if inc.Start < sim.Second || inc.Start > 4*sim.Second {
		t.Fatalf("stall Start %v, want within a few ticks of the 1s failure", inc.Start)
	}
	if inc.End <= 6*sim.Second || inc.End > 8*sim.Second {
		t.Fatalf("stall End %v, want the first quiet sweep after the 6s recovery", inc.End)
	}
	if inc.Events < 1 || inc.Peak < 1 {
		t.Fatalf("stall incident carries no observations: %+v", inc)
	}
}

// torUplink returns some ToR node and its first uplink for synthetic hash
// decisions.
func torUplink(t *testing.T, top *topo.Topology) (topo.NodeID, topo.LinkID) {
	t.Helper()
	for id, nd := range top.Nodes {
		if nd.Kind == topo.KindToR && len(nd.Uplinks) > 0 {
			return topo.NodeID(id), nd.Uplinks[0]
		}
	}
	t.Fatal("no ToR with uplinks in topology")
	return 0, 0
}

// The polarization detector withholds judgment until the distinct-tuple
// mass clears the coupon-collector floor, then opens on a starved group
// and closes once the loads even out.
func TestPolarizationDetector(t *testing.T) {
	_, net, m := newMonitor(t, true)
	tor, up := torUplink(t, net.Top)
	feed := func(n, bucket int, base uint16) {
		for i := 0; i < n; i++ {
			f := netsim.FlowState{Tuple: hashing.FiveTuple{SrcPort: base + uint16(i), DstPort: uint16(bucket)}.Word()}
			m.notePath(0, &f, []route.HopDecision{
				{Link: up, Node: tor, Hashed: true, Group: 4, Bucket: bucket},
			})
		}
	}

	// 20 tuples all on bucket 0: under the 6*4=24 mass floor, no judgment.
	feed(20, 0, 0)
	m.sweepPolarization(sim.Second)
	if len(m.Incidents()) != 0 {
		t.Fatalf("judged below the mass floor: %+v", m.Incidents())
	}

	// Ten more clears the floor with every flow on one bucket: polarized.
	feed(10, 0, 1000)
	m.sweepPolarization(2 * sim.Second)
	incs := m.Incidents()
	if len(incs) != 1 || incs[0].Kind != KindPolarization || !incs[0].Open {
		t.Fatalf("starved group not flagged: %+v", incs)
	}
	if !strings.HasSuffix(incs[0].Subject, "/up4") {
		t.Fatalf("subject %q, want <node>/up4", incs[0].Subject)
	}

	// A duplicate tuple adds no mass (reroutes re-hash identically).
	before := m.groupList[0].mass
	feed(1, 0, 0) // SrcPort 0 / DstPort 0 was already counted
	if got := m.groupList[0].mass; got != before {
		t.Fatalf("duplicate tuple changed mass %d -> %d", before, got)
	}

	// Even out the load: the next sweep closes the incident.
	for b := 1; b < 4; b++ {
		feed(30, b, uint16(2000*b))
	}
	m.sweepPolarization(3 * sim.Second)
	if inc := m.Incidents()[0]; inc.Open {
		t.Fatalf("balanced group left incident open: %+v", inc)
	}
}

// Non-hashed, per-port, fallback and trivial-group hops carry no
// polarization signal and must be ignored.
func TestPolarizationIgnoresNonSignalHops(t *testing.T) {
	_, net, m := newMonitor(t, true)
	tor, up := torUplink(t, net.Top)
	f := netsim.FlowState{Tuple: hashing.FiveTuple{SrcPort: 7}.Word()}
	m.notePath(0, &f, []route.HopDecision{
		{Link: up, Node: tor, Hashed: false, Group: 4, Bucket: 0},
		{Link: up, Node: tor, Hashed: true, PerPort: true, Group: 4, Bucket: 0},
		{Link: up, Node: tor, Hashed: true, Fallback: true, Group: 4, Bucket: 0},
		{Link: up, Node: tor, Hashed: true, Group: 1, Bucket: 0},
	})
	if len(m.groupList) != 0 {
		t.Fatalf("non-signal hops created group state: %+v", m.groupList)
	}
}

// The throughput detector learns a per-size-class baseline, opens once a
// burst of flows completes far below it, and closes after a quiet window.
func TestThroughputDetectorLifecycle(t *testing.T) {
	_, _, m := newMonitor(t, true)
	done := func(now sim.Time, bits float64, d sim.Time) {
		m.noteCompletion(now, &netsim.FlowState{Bits: bits, StartedAt: now - d})
	}
	// Baseline: 32 flows of 1e6 bits at 1 Gbit/s.
	for i := 0; i < 32; i++ {
		done(sim.Time(i)*sim.Millisecond, 1e6, sim.Millisecond)
	}
	if len(m.Incidents()) != 0 {
		t.Fatalf("baseline flows opened %+v", m.Incidents())
	}
	// Burst of 8 at a quarter of the baseline rate inside the 5s window.
	burstStart := 100 * sim.Millisecond
	for i := 0; i < 8; i++ {
		done(burstStart+sim.Time(i)*100*sim.Millisecond, 1e6, 4*sim.Millisecond)
	}
	incs := m.Incidents()
	if len(incs) != 1 || incs[0].Kind != KindThroughput || !incs[0].Open {
		t.Fatalf("degraded burst not flagged: %+v", incs)
	}
	if incs[0].Start != burstStart {
		t.Fatalf("incident Start %v, want first degraded completion at %v", incs[0].Start, burstStart)
	}
	if incs[0].Peak < 3.9 || incs[0].Peak > 4.1 {
		t.Fatalf("Peak slowdown %v, want ~4x", incs[0].Peak)
	}
	// Healthy completions keep the class fed; a quiet window closes it.
	m.sweepThroughput(incs[0].Start + 800*sim.Millisecond + 5*sim.Second)
	if inc := m.Incidents()[0]; inc.Open {
		t.Fatalf("quiet window left throughput incident open: %+v", inc)
	}
}

// Flows completing at exactly half their class's rate, as two flows
// sharing a link do, sit on the degraded-throughput threshold and are not
// degraded. A float running sum of the 1e6-bit, 3-ms baseline rounds its
// mean above the rate, which judged every half-rate flow degraded and
// opened an incident.
func TestHalfRateFlowsAreHealthy(t *testing.T) {
	_, _, m := newMonitor(t, true)
	done := func(now sim.Time, d sim.Time) {
		m.noteCompletion(now, &netsim.FlowState{Bits: 1e6, StartedAt: now - d})
	}
	for i := 0; i < baselineFlows; i++ {
		done(sim.Time(i)*sim.Millisecond, 3*sim.Millisecond)
	}
	for i := 0; i < 4*degradedMinFlows; i++ {
		done(100*sim.Millisecond+sim.Time(i)*sim.Millisecond, 6*sim.Millisecond)
	}
	if incs := m.Incidents(); len(incs) != 0 {
		t.Fatalf("half-rate flows opened %+v", incs)
	}
	if cs := m.classList[0]; cs.n != baselineFlows+4*degradedMinFlows || len(cs.times) != 0 {
		t.Fatalf("class holds %d healthy flows and %d degraded, want every flow healthy", cs.n, len(cs.times))
	}
}

// A class's state does not depend on the order its completions arrive in.
func TestClassSumIsOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := make([]sim.Time, 300)
	for i := range ds {
		ds[i] = sim.Millisecond + sim.Time(rng.Int63n(int64(sim.Millisecond)/2))
	}
	var states []classState
	for k := 0; k < 4; k++ {
		_, _, m := newMonitor(t, true)
		for i, d := range ds {
			at := sim.Time(i) * sim.Millisecond
			m.noteCompletion(at, &netsim.FlowState{Bits: 3e6, StartedAt: at - d})
		}
		states = append(states, *m.classList[0])
		rng.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	}
	for k, st := range states[1:] {
		if st.n != len(ds) || st.sum != states[0].sum {
			t.Fatalf("order %d: class holds %d flows summing to %v, first order %d summing to %v",
				k+1, st.n, st.sum, states[0].n, states[0].sum)
		}
	}
}

func TestClassLabel(t *testing.T) {
	cases := map[int]string{
		2:  "<1B",  // 4 bits
		3:  "1B",   // 8 bits
		13: "1KiB", // 2^13 bits = 2^10 bytes
		23: "1MiB", //
		36: "8GiB", // 2^36 bits = 2^33 bytes
		43: "1TiB", //
		11: "256B", //
		20: "128KiB",
	}
	for exp, want := range cases {
		if got := classLabel(exp); got != want {
			t.Errorf("classLabel(%d) = %q, want %q", exp, got, want)
		}
	}
}

// The TSV artifact round-trips edge cases exactly: open incidents, details
// with spaces, multi-cause and cause-free iterations.
func TestArtifactTSVRoundTrip(t *testing.T) {
	incs := []Incident{
		{ID: 1, Kind: KindFlap, Subject: "tor0<->agg1", Start: 5 * sim.Second, End: 20 * sim.Second,
			Events: 6, Peak: 5, Detail: "6 transitions within 10s"},
		{ID: 2, Kind: KindStall, Subject: "fabric", Start: 7 * sim.Second, Open: true,
			Events: 3, Peak: 14, Detail: "flows blackholed awaiting reconvergence"},
	}
	iters := []IterationReport{
		{Iter: 1, Start: 0, End: 4 * sim.Second, CommS: 0.5},
		{Iter: 2, Start: 4 * sim.Second, End: 9 * sim.Second, CommS: 0.9,
			BaselineS: 0.5, DeltaFrac: 0.8, Regressed: true, Reroutes: 2, Causes: []int{1, 2}},
	}
	var buf bytes.Buffer
	m := timelineMonitor(incs, iters)
	if !reflect.DeepEqual(reports(m), iters) {
		t.Fatalf("stored reports %+v, want %+v", reports(m), iters)
	}
	if err := m.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	gotIncs, gotIters, err := ParseTSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotIncs, incs) {
		t.Fatalf("incidents round-trip:\nwrote:  %+v\nparsed: %+v", incs, gotIncs)
	}
	if !reflect.DeepEqual(gotIters, iters) {
		t.Fatalf("iterations round-trip:\nwrote:  %+v\nparsed: %+v", iters, gotIters)
	}
}

// ParseTSV rejects foreign headers rather than misreading columns.
func TestParseTSVRejectsBadHeader(t *testing.T) {
	if _, _, err := ParseTSV(strings.NewReader("nope\tnope\n")); err == nil {
		t.Fatal("foreign header accepted")
	}
}

// The JSON artifact must be well-formed JSON with the summary the Summary
// type computes.
func TestArtifactJSONWellFormed(t *testing.T) {
	m := timelineMonitor(
		[]Incident{{ID: 1, Kind: KindFlap, Subject: `to"r<->agg`, Start: 1, Open: true,
			Events: 4, Peak: 4, Detail: "detail with \"quotes\" and\ttab"}},
		[]IterationReport{{Iter: 1, End: 2, CommS: 0.5, BaselineS: 0.25, Causes: []int{1}}})
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Incidents  []map[string]any `json:"incidents"`
		Iterations []map[string]any `json:"iterations"`
		Summary    map[string]any   `json:"summary"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("incidents.json is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Incidents) != 1 || len(doc.Iterations) != 1 {
		t.Fatalf("json carries %d incidents / %d iterations, want 1/1", len(doc.Incidents), len(doc.Iterations))
	}
	if got := doc.Summary["attributed"]; got != float64(1) {
		t.Fatalf("summary.attributed = %v, want 1", got)
	}
	if got := doc.Incidents[0]["end_ns"]; got != float64(-1) {
		t.Fatalf("open incident end_ns = %v, want -1", got)
	}
}

func TestSummaryExitCodesAndVerdict(t *testing.T) {
	healthy := Summarize(nil, []IterationReport{{Iter: 1}})
	if healthy.ExitCode() != ExitHealthy || !strings.HasPrefix(healthy.Verdict(), "healthy") {
		t.Fatalf("healthy summary: exit %d verdict %q", healthy.ExitCode(), healthy.Verdict())
	}
	withInc := Summarize([]Incident{{ID: 1, Kind: KindFlap, Open: true}}, nil)
	if withInc.ExitCode() != ExitIncidents || !strings.HasPrefix(withInc.Verdict(), "unhealthy") {
		t.Fatalf("incident summary: exit %d verdict %q", withInc.ExitCode(), withInc.Verdict())
	}
	regressOnly := Summarize(nil, []IterationReport{{Iter: 1, Regressed: true}})
	if regressOnly.ExitCode() != ExitRegression || !strings.HasPrefix(regressOnly.Verdict(), "regressed") {
		t.Fatalf("regression summary: exit %d verdict %q", regressOnly.ExitCode(), regressOnly.Verdict())
	}
}

// The merged timeline is ordered by start time with incidents leading at
// equal instants — the chronology hpndoctor prints.
func TestTimelineMergeOrder(t *testing.T) {
	incs := []Incident{
		{ID: 1, Start: 10},
		{ID: 2, Start: 3},
	}
	iters := []IterationReport{
		{Iter: 1, Start: 0, End: 3},
		{Iter: 2, Start: 3, End: 12},
	}
	var buf bytes.Buffer
	if err := timelineMonitor(incs, iters).WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n")[1:] {
		f := strings.Split(line, "\t")
		if f[0] == "incident" {
			order = append(order, "inc"+f[1])
		} else {
			order = append(order, "iter"+f[10])
		}
	}
	want := []string{"iter1", "inc2", "iter2", "inc1"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("timeline order %v, want %v", order, want)
	}
}

// Verdict strings name incidents by kind and subject.
func TestIterationVerdictRendering(t *testing.T) {
	incs := []Incident{{ID: 1, Kind: KindFlap, Subject: "tor0<->agg2"}}
	r := IterationReport{Iter: 47, CommS: 1.31, BaselineS: 1.0, DeltaFrac: 0.31,
		Regressed: true, Reroutes: 2, Causes: []int{1}}
	got := r.Verdict(incs)
	for _, frag := range []string{"iteration 47", "+31%", "flap-storm on tor0<->agg2 (#1)", "2 reroutes"} {
		if !strings.Contains(got, frag) {
			t.Fatalf("verdict %q missing %q", got, frag)
		}
	}
}
