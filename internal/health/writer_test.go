package health

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"hpn/internal/artifact/artifacttest"
	"hpn/internal/sim"
)

// timelineRow is one row of the merged timeline: exactly one of inc and
// iter is set.
type timelineRow struct {
	start sim.Time
	inc   *Incident
	iter  *IterationReport
}

// oracleTimeline sorts the monitor's incidents and reports into one
// timeline: by start time, incidents before iterations at the same instant,
// then by ID / iteration number.
func oracleTimeline(m *Monitor) []timelineRow {
	var rows []timelineRow
	for i := range m.incidents {
		rows = append(rows, timelineRow{start: m.incidents[i].Start, inc: &m.incidents[i]})
	}
	iters := reports(m)
	for i := range iters {
		rows = append(rows, timelineRow{start: iters[i].Start, iter: &iters[i]})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].start != rows[j].start {
			return rows[i].start < rows[j].start
		}
		ri, rj := rows[i], rows[j]
		if (ri.inc != nil) != (rj.inc != nil) {
			return ri.inc != nil
		}
		if ri.inc != nil {
			return ri.inc.ID < rj.inc.ID
		}
		return ri.iter.Iter < rj.iter.Iter
	})
	return rows
}

// oracleTSV and oracleJSON are the fmt-based renderers the streaming
// writers replaced, kept as the byte-for-byte reference.
func oracleTSV(m *Monitor) []byte {
	var b strings.Builder
	b.WriteString(tsvHeader)
	b.WriteByte('\n')
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, row := range oracleTimeline(m) {
		if inc := row.inc; inc != nil {
			end := int64(inc.End)
			if inc.Open {
				end = -1
			}
			fmt.Fprintf(&b, "incident\t%d\t%s\t%s\t%d\t%d\t%t\t%d\t%s\t%s\t-1\t0\t0\t0\tfalse\t-1\t-\n",
				inc.ID, inc.Kind, inc.Subject, int64(inc.Start), end, inc.Open,
				inc.Events, g(inc.Peak), inc.Detail)
			continue
		}
		it := row.iter
		causes := "-"
		if len(it.Causes) > 0 {
			parts := make([]string, len(it.Causes))
			for i, id := range it.Causes {
				parts[i] = strconv.Itoa(id)
			}
			causes = strings.Join(parts, "+")
		}
		fmt.Fprintf(&b, "iteration\t-1\t-\t-\t%d\t%d\tfalse\t-1\t0\t-\t%d\t%s\t%s\t%s\t%t\t%d\t%s\n",
			int64(it.Start), int64(it.End), it.Iter, g(it.CommS), g(it.BaselineS),
			g(it.DeltaFrac), it.Regressed, it.Reroutes, causes)
	}
	return []byte(b.String())
}

func oracleJSONString(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case c < 0x20:
			fmt.Fprintf(&b, "\\u%04x", c)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

func oracleJSON(incs []Incident, iters []IterationReport) []byte {
	var b strings.Builder
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	b.WriteString("{\n\"incidents\": [")
	for i := range incs {
		inc := &incs[i]
		if i > 0 {
			b.WriteByte(',')
		}
		end := int64(inc.End)
		if inc.Open {
			end = -1
		}
		fmt.Fprintf(&b, "\n{\"id\": %d, \"kind\": %s, \"subject\": %s, \"start_ns\": %d, \"end_ns\": %d, \"open\": %t, \"events\": %d, \"peak\": %s, \"detail\": %s}",
			inc.ID, oracleJSONString(inc.Kind), oracleJSONString(inc.Subject), int64(inc.Start), end,
			inc.Open, inc.Events, g(inc.Peak), oracleJSONString(inc.Detail))
	}
	b.WriteString("\n],\n\"iterations\": [")
	for i := range iters {
		it := &iters[i]
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "\n{\"iter\": %d, \"start_ns\": %d, \"end_ns\": %d, \"comm_s\": %s, \"baseline_s\": %s, \"delta_frac\": %s, \"regressed\": %t, \"reroutes\": %d, \"causes\": [",
			it.Iter, int64(it.Start), int64(it.End), g(it.CommS), g(it.BaselineS),
			g(it.DeltaFrac), it.Regressed, it.Reroutes)
		for j, id := range it.Causes {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.Itoa(id))
		}
		b.WriteString("]}")
	}
	s := Summarize(incs, iters)
	fmt.Fprintf(&b, "\n],\n\"summary\": {\"incidents\": %d, \"open\": %d, \"flap_storm\": %d, \"stall\": %d, \"polarization\": %d, \"degraded_throughput\": %d, \"iterations\": %d, \"regressed\": %d, \"attributed\": %d}\n}\n",
		s.Incidents, s.Open, s.Flap, s.Stall, s.Polarization, s.Throughput,
		s.Iterations, s.Regressed, s.Attributed)
	return []byte(b.String())
}

var kinds = []string{KindFlap, KindStall, KindPolarization, KindThroughput}

// randomTimeline returns a monitor holding random incidents and iteration
// reports. The reports keep the monitor's invariant: iteration numbers
// rise and each report ends no earlier than it starts.
func randomTimeline(r *rand.Rand, nInc, nIter int) *Monitor {
	var incs []Incident
	for i := 0; i < nInc; i++ {
		kind := kinds[r.Intn(len(kinds))]
		if r.Intn(3) == 0 {
			kind = artifacttest.String(r)
		}
		incs = append(incs, Incident{
			ID: artifacttest.Int(r), Kind: kind, Subject: artifacttest.String(r),
			Start: sim.Time(artifacttest.Int64(r)), End: sim.Time(artifacttest.Int64(r)), Open: r.Intn(2) == 0,
			Events: artifacttest.Int(r), Peak: artifacttest.Float(r), Detail: artifacttest.String(r),
		})
	}
	var iters []IterationReport
	iter, at := r.Intn(1<<20), sim.Time(r.Int63n(1<<40)-1<<39)
	for i := 0; i < nIter; i++ {
		causes := make([]int, r.Intn(4))
		for j := range causes {
			causes[j] = artifacttest.Int(r)
		}
		start := at
		if r.Intn(4) > 0 {
			at += sim.Time(r.Int63n(1 << 32))
		}
		iter += 1 + r.Intn(3)
		iters = append(iters, IterationReport{
			Iter: iter, Start: start, End: at, CommS: artifacttest.Float(r), BaselineS: artifacttest.Float(r),
			Reroutes: int(int32(artifacttest.Int(r))), Causes: causes,
		})
	}
	return timelineMonitor(incs, iters)
}

func TestWritersMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var edgeIncs []Incident
	for i, s := range artifacttest.Strings {
		edgeIncs = append(edgeIncs, Incident{ID: i, Kind: s, Subject: s, Detail: s, Peak: artifacttest.Floats[i%len(artifacttest.Floats)]})
	}
	edgeIters := []IterationReport{{Iter: math.MinInt32, Start: math.MinInt64, End: math.MinInt64}}
	ends := slices.Clone(artifacttest.Int64s)
	slices.Sort(ends)
	for i, v := range ends {
		edgeIters = append(edgeIters, IterationReport{Iter: math.MinInt32 + 1 + i, End: sim.Time(v), Reroutes: int(int32(v))})
	}
	fs := artifacttest.Floats
	for i, v := range fs {
		edgeIters = append(edgeIters, IterationReport{Iter: math.MaxInt32 - len(fs) + 1 + i, End: math.MaxInt64,
			CommS: v, BaselineS: fs[(i+3)%len(fs)], Causes: []int{i, -i}})
	}
	sets := []*Monitor{{}, timelineMonitor(edgeIncs, edgeIters)}
	for k := 0; k < 20; k++ {
		sets = append(sets, randomTimeline(rng, rng.Intn(40), rng.Intn(80)))
	}
	for k, m := range sets {
		var tsv, js bytes.Buffer
		if err := m.WriteTSV(&tsv); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if want := oracleTSV(m); !bytes.Equal(tsv.Bytes(), want) {
			t.Errorf("set %d: incidents.tsv differs from the oracle:\n got %q\nwant %q", k, tsv.Bytes(), want)
		}
		if want := oracleJSON(m.incidents, reports(m)); !bytes.Equal(js.Bytes(), want) {
			t.Errorf("set %d: incidents.json differs from the oracle:\n got %q\nwant %q", k, js.Bytes(), want)
		}
	}
}

func TestWritersSurfaceErrors(t *testing.T) {
	m := randomTimeline(rand.New(rand.NewSource(10)), 10, 30)
	artifacttest.CheckErrors(t, "incidents.tsv", m.WriteTSV)
	artifacttest.CheckErrors(t, "incidents.json", m.WriteJSON)
}

func TestWritersAllocateConstant(t *testing.T) {
	timeline := func(n int) *Monitor {
		var incs []Incident
		var iters []IterationReport
		for i := 0; i < n; i++ {
			incs = append(incs, Incident{ID: 7, Kind: KindFlap, Subject: "tor0<->agg2", Start: 5, End: 9, Events: 4, Peak: 6, Detail: "6 transitions in 10s"})
			iters = append(iters, IterationReport{Iter: 12 + i, End: 8 + sim.Time(i), CommS: 1.25, BaselineS: 1, Reroutes: 2, Causes: []int{7}})
		}
		return timelineMonitor(incs, iters)
	}
	small, large := timeline(10), timeline(10_000)
	artifacttest.CheckAllocs(t, "incidents.tsv", small.WriteTSV, large.WriteTSV)
	artifacttest.CheckAllocs(t, "incidents.json", small.WriteJSON, large.WriteJSON)
}
