package inband

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"hpn/internal/hashing"
	"hpn/internal/route"
	"hpn/internal/topo"
)

// observedPath walks one cross-segment path with in-band observation on and
// returns the topology, decisions, and path length.
func observedPath(t *testing.T, sport uint16) (*topo.Topology, []route.HopDecision) {
	t.Helper()
	top, err := topo.BuildHPN(topo.SmallHPN(2, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	r := route.New(top)
	src, dst := route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 4, NIC: 0}
	tu := hashing.FiveTuple{SrcAddr: src.Addr(), DstAddr: dst.Addr(), SrcPort: sport, DstPort: 4791, Proto: 17}
	var hops []route.HopDecision
	p, bh, err := r.AppendPath(nil, src, dst, 0, tu, 0, func(d route.HopDecision) { hops = append(hops, d) })
	if err != nil || bh {
		t.Fatalf("path err=%v blackholed=%v", err, bh)
	}
	if len(hops) != len(p) {
		t.Fatalf("observed %d decisions for a %d-link path", len(hops), len(p))
	}
	for i, d := range hops {
		if d.Link != p[i] {
			t.Fatalf("decision %d names link %d, path has %d", i, d.Link, p[i])
		}
	}
	return top, hops
}

func TestPathObservedDecisions(t *testing.T) {
	_, hops := observedPath(t, 1000)
	// Cross-segment: access (unhashed), ToR->Agg (hashed up), Agg->ToR
	// (hashed down), ToR->host (unhashed delivery).
	if len(hops) != 4 {
		t.Fatalf("cross-segment path has %d hops, want 4", len(hops))
	}
	if hops[0].Hashed || hops[0].Down {
		t.Errorf("access hop misclassified: %+v", hops[0])
	}
	if !hops[1].Hashed || hops[1].Down || hops[1].Group < 2 {
		t.Errorf("ToR uplink hop misclassified: %+v", hops[1])
	}
	if !hops[2].Hashed || !hops[2].Down {
		t.Errorf("Agg downlink hop misclassified: %+v", hops[2])
	}
	if hops[3].Hashed || !hops[3].Down {
		t.Errorf("delivery hop misclassified: %+v", hops[3])
	}
	for i, d := range hops[1:3] {
		if d.Bucket < 0 || d.Bucket >= d.Group {
			t.Errorf("hashed hop %d bucket %d outside group %d", i+1, d.Bucket, d.Group)
		}
	}
}

func TestCollectorFlushAndTSVRoundTrip(t *testing.T) {
	top, hops := observedPath(t, 1000)
	c := NewCollector(top, 0)
	stats := []HopStat{{1.5e9, 0}, {1.5e9, 12.25}, {1.5e9, 0.5}, {1.5e9, 0}}
	c.FlushFlow(7, 1, 0xfeed, 1000, 9000, hops, stats)

	recs := c.Records()
	if len(recs) != len(hops) {
		t.Fatalf("%d records, want %d", len(recs), len(hops))
	}
	for i, r := range recs {
		if r.Flow != 7 || r.Epoch != 1 || r.Seq != i || r.Tuple != 0xfeed || r.EnterNS != 1000 || r.ExitNS != 9000 {
			t.Fatalf("record %d identity fields wrong: %+v", i, r)
		}
		if r.Bits != stats[i].Bits || r.QueueByteS != stats[i].QueueByteS {
			t.Fatalf("record %d accumulators wrong: %+v", i, r)
		}
		if r.Name == "" || !strings.Contains(r.Name, ">") || !strings.Contains(r.Tier, "-") {
			t.Fatalf("record %d unlabeled: %+v", i, r)
		}
		if r.Hashed && r.Node == "" {
			t.Fatalf("hashed record %d has no deciding node: %+v", i, r)
		}
	}

	var buf bytes.Buffer
	if err := c.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, recs) {
		t.Fatalf("TSV round trip mutated records:\n got %+v\nwant %+v", parsed, recs)
	}
}

func TestCollectorShortAccumulators(t *testing.T) {
	top, hops := observedPath(t, 1001)
	c := NewCollector(top, 0)
	// stats shorter than the path (partial integration): missing entries
	// read as zero rather than panicking.
	c.FlushFlow(1, 0, 1, 0, 10, hops, []HopStat{{Bits: 5}})
	recs := c.Records()
	if recs[0].Bits != 5 || recs[1].Bits != 0 || recs[0].QueueByteS != 0 {
		t.Fatalf("short accumulators misapplied: %+v", recs[:2])
	}
}

func TestCollectorCapDrops(t *testing.T) {
	top, hops := observedPath(t, 1002)
	c := NewCollector(top, len(hops)+1)
	c.FlushFlow(1, 0, 1, 0, 10, hops, nil)
	c.FlushFlow(2, 0, 2, 0, 10, hops, nil)
	if len(c.Records()) != len(hops)+1 {
		t.Fatalf("cap not enforced: %d records retained", len(c.Records()))
	}
	if c.Dropped() != len(hops)-1 {
		t.Fatalf("dropped = %d, want %d", c.Dropped(), len(hops)-1)
	}
}

func TestWriteTSVEmpty(t *testing.T) {
	top, err := topo.BuildHPN(topo.SmallHPN(1, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(top, 0)
	var buf bytes.Buffer
	if err := c.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != tsvHeader {
		t.Fatalf("empty TSV = %q, want header only", buf.String())
	}
	recs, err := ParseTSV(bytes.NewReader(buf.Bytes()))
	if err != nil || len(recs) != 0 {
		t.Fatalf("parsing empty artifact: recs=%d err=%v", len(recs), err)
	}
}

func TestWriteJSONIsValidJSON(t *testing.T) {
	top, hops := observedPath(t, 1003)
	c := NewCollector(top, 0)
	c.FlushFlow(3, 0, 3, 0, 10, hops, nil)
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v", err)
	}
	if len(parsed) != len(hops) {
		t.Fatalf("JSON holds %d records, want %d", len(parsed), len(hops))
	}
	if parsed[0]["flow"] != float64(3) || parsed[0]["seq"] != float64(0) {
		t.Fatalf("JSON record 0 fields wrong: %v", parsed[0])
	}
}

func TestParseTSVRejectsGarbage(t *testing.T) {
	cases := []string{
		"",                      // no header
		"flow\tepoch\n1\t2\n",   // wrong header
		tsvHeader + "1\t2\t3\n", // wrong field count
		tsvHeader + strings.Repeat("x\t", 18) + "x\n", // non-numeric fields
	}
	for i, in := range cases {
		if _, err := ParseTSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: ParseTSV accepted malformed input %q", i, in)
		}
	}
}

// rec builds a minimal synthetic record for the analyzers.
func rec(flow int64, seq, link int, tier string, bits, q float64) Record {
	return Record{Flow: flow, Seq: seq, Link: link, Name: "n" + tier, Tier: tier, Bits: bits, QueueByteS: q}
}

func TestLinkUsageTableAndTopContended(t *testing.T) {
	recs := []Record{
		rec(1, 0, 10, "host-tor", 4e9, 0),
		rec(2, 0, 10, "host-tor", 2e9, 3),
		rec(1, 1, 20, "tor-agg", 1e9, 100),
		rec(3, 0, 30, "tor-agg", 9e9, 0), // single flow, no queue: not contended
	}
	usage := LinkUsageTable(recs)
	if len(usage) != 3 {
		t.Fatalf("%d links, want 3", len(usage))
	}
	if usage[0].Link != 10 || usage[0].Bits != 6e9 || usage[0].Queue != 3 {
		t.Fatalf("link 10 aggregation wrong: %+v", usage[0])
	}
	if !reflect.DeepEqual(usage[0].Flows, []int64{1, 2}) {
		t.Fatalf("link 10 flow set = %v, want [1 2]", usage[0].Flows)
	}

	top := TopContended(usage, 10)
	if len(top) != 2 {
		t.Fatalf("%d contended links, want 2 (single uncontended flow skipped)", len(top))
	}
	if top[0].Link != 20 || top[1].Link != 10 {
		t.Fatalf("contention ranking wrong: %+v", top)
	}
	if got := TopContended(usage, 1); len(got) != 1 || got[0].Link != 20 {
		t.Fatalf("top-k truncation wrong: %+v", got)
	}
}

func TestECMPImbalance(t *testing.T) {
	var recs []Record
	// Node "a", group 4: every observation lands in bucket 0 — maximal skew.
	for i := 0; i < 8; i++ {
		recs = append(recs, Record{Flow: int64(i), Hashed: true, Node: "a", Group: 4, Bucket: 0})
	}
	// Node "b", group 2: perfectly even.
	for i := 0; i < 8; i++ {
		recs = append(recs, Record{Flow: int64(i), Hashed: true, Node: "b", Group: 2, Bucket: i % 2})
	}
	// Fallback and unhashed records are excluded.
	recs = append(recs,
		Record{Flow: 99, Hashed: true, Fallback: true, Node: "a", Group: 4, Bucket: 1},
		Record{Flow: 99, Hashed: false, Node: "c", Group: 4, Bucket: 1},
	)
	groups := ECMPImbalance(recs)
	if len(groups) != 2 {
		t.Fatalf("%d groups, want 2", len(groups))
	}
	if groups[0].Node != "a" || groups[0].Total != 8 || groups[0].Ratio != 4 {
		t.Fatalf("skewed group scored wrong: %+v", groups[0])
	}
	if groups[1].Node != "b" || groups[1].Ratio != 1 {
		t.Fatalf("even group scored wrong: %+v", groups[1])
	}
}

// cascade synthesizes flows (each a distinct 5-tuple) through two
// consecutive hashed stages with bucketB computed from bucketA by pick.
func cascade(n, groupA, groupB int, pick func(flow, bucketA int) int) []Record {
	var recs []Record
	for f := 0; f < n; f++ {
		a := f % groupA
		recs = append(recs,
			Record{Flow: int64(f), Seq: 1, Tuple: uint64(f + 1), Hashed: true, Node: "tor", Group: groupA, Bucket: a},
			Record{Flow: int64(f), Seq: 2, Tuple: uint64(f + 1), Hashed: true, Node: "agg", Group: groupB, Bucket: pick(f, a)},
		)
	}
	return recs
}

func TestDetectPolarization(t *testing.T) {
	// Shared-seed degenerate cascade: downstream bucket is a function of
	// the upstream bucket alone (H mod 2 determined by H mod 4).
	pol := cascade(64, 4, 2, func(_, a int) int { return a % 2 })
	pairs := DetectPolarization(pol)
	if len(pairs) != 1 {
		t.Fatalf("%d stage pairs, want 1", len(pairs))
	}
	p := pairs[0]
	if p.NodeA != "tor" || p.NodeB != "agg" || p.Total != 64 {
		t.Fatalf("pair misassembled: %+v", p)
	}
	if !p.Polarized() {
		t.Fatalf("degenerate cascade not flagged: score=%.2f conditioned=%d", p.Score, p.Conditioned)
	}

	// Independent cascade: downstream bucket varies within each upstream
	// bucket's row.
	ind := cascade(64, 4, 2, func(f, _ int) int { return (f / 4) % 2 })
	pairs = DetectPolarization(ind)
	if len(pairs) != 1 || pairs[0].Polarized() {
		t.Fatalf("independent cascade falsely flagged: %+v", pairs)
	}

	// Below the mass floor no verdict is offered.
	few := cascade(4, 4, 2, func(_, a int) int { return a % 2 })
	pairs = DetectPolarization(few)
	if len(pairs) == 1 && pairs[0].Polarized() {
		t.Fatalf("verdict offered on %d conditioned observations", pairs[0].Conditioned)
	}

	// Non-adjacent hashed hops (Seq gap) never pair.
	gap := []Record{
		{Flow: 1, Seq: 1, Hashed: true, Node: "tor", Group: 4, Bucket: 0},
		{Flow: 1, Seq: 3, Hashed: true, Node: "core", Group: 4, Bucket: 1},
	}
	if got := DetectPolarization(gap); len(got) != 0 {
		t.Fatalf("non-adjacent stages paired: %+v", got)
	}

	// Per-port (§7) hops are engineered rotation, not polarization.
	pp := cascade(64, 4, 2, func(_, a int) int { return a % 2 })
	for i := range pp {
		pp[i].PerPort = true
	}
	if got := DetectPolarization(pp); len(got) != 0 {
		t.Fatalf("per-port hops scored for polarization: %+v", got)
	}
}

// TestDetectPolarizationDedupesTuples is the long-lived-connection case: one
// ring connection observed over many sends (distinct flow IDs, same tuple)
// is a single piece of evidence, never a degeneracy verdict.
func TestDetectPolarizationDedupesTuples(t *testing.T) {
	var recs []Record
	for f := 0; f < 64; f++ {
		recs = append(recs,
			Record{Flow: int64(f), Seq: 1, Tuple: 42, Hashed: true, Node: "tor", Group: 4, Bucket: 1},
			Record{Flow: int64(f), Seq: 2, Tuple: 42, Hashed: true, Node: "agg", Group: 2, Bucket: 0},
		)
	}
	pairs := DetectPolarization(recs)
	if len(pairs) != 1 {
		t.Fatalf("%d stage pairs, want 1", len(pairs))
	}
	if pairs[0].Total != 1 {
		t.Fatalf("repeated tuple counted %d times, want 1", pairs[0].Total)
	}
	if pairs[0].Polarized() {
		t.Fatal("single connection flagged as polarization")
	}
}

func TestWriteHeatmapCSV(t *testing.T) {
	usage := LinkUsageTable([]Record{
		rec(1, 0, 10, "host-tor", 4e9, 0),
		rec(1, 1, 20, "tor-agg", 2e9, 0),
		rec(2, 1, 21, "tor-agg", 1e9, 0),
	})
	var buf bytes.Buffer
	if err := WriteHeatmapCSV(&buf, usage); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "tier,l0,l1\n") {
		t.Fatalf("heatmap header wrong:\n%s", out)
	}
	for _, want := range []string{"host-tor,4,\n", "tor-agg,2,1\n", "legend_tier,slot,link,name\n", "tor-agg,1,21,ntor-agg\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("heatmap missing %q:\n%s", want, out)
		}
	}
}
