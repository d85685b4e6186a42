package health

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"hpn/internal/artifact/artifacttest"
	"hpn/internal/sim"
)

// oracleTSV and oracleJSON are the fmt-based renderers the streaming
// writers replaced, kept as the byte-for-byte reference.
func oracleTSV(m *Monitor) []byte {
	var b strings.Builder
	b.WriteString(tsvHeader)
	b.WriteByte('\n')
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, row := range m.timeline() {
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

func randomTimeline(r *rand.Rand, nInc, nIter int) *Monitor {
	m := &Monitor{}
	for i := 0; i < nInc; i++ {
		kind := kinds[r.Intn(len(kinds))]
		if r.Intn(3) == 0 {
			kind = artifacttest.String(r)
		}
		m.incidents = append(m.incidents, Incident{
			ID: artifacttest.Int(r), Kind: kind, Subject: artifacttest.String(r),
			Start: sim.Time(artifacttest.Int64(r)), End: sim.Time(artifacttest.Int64(r)), Open: r.Intn(2) == 0,
			Events: artifacttest.Int(r), Peak: artifacttest.Float(r), Detail: artifacttest.String(r),
		})
	}
	for i := 0; i < nIter; i++ {
		causes := make([]int, r.Intn(4))
		for j := range causes {
			causes[j] = artifacttest.Int(r)
		}
		if len(causes) == 0 && r.Intn(2) == 0 {
			causes = nil
		}
		m.iters = append(m.iters, IterationReport{
			Iter: artifacttest.Int(r), Start: sim.Time(artifacttest.Int64(r)), End: sim.Time(artifacttest.Int64(r)),
			CommS: artifacttest.Float(r), BaselineS: artifacttest.Float(r), DeltaFrac: artifacttest.Float(r),
			Regressed: r.Intn(2) == 0, Reroutes: artifacttest.Int(r), Causes: causes,
		})
	}
	return m
}

func TestWritersMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	edge := &Monitor{}
	for i, s := range artifacttest.Strings {
		edge.incidents = append(edge.incidents, Incident{ID: i, Kind: s, Subject: s, Detail: s, Peak: artifacttest.Floats[i%len(artifacttest.Floats)]})
	}
	for i, v := range artifacttest.Floats {
		edge.iters = append(edge.iters, IterationReport{Iter: i, CommS: v, BaselineS: v, DeltaFrac: v, Causes: []int{i, -i}})
	}
	sets := []*Monitor{{}, edge}
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
		if want := oracleJSON(m.incidents, m.iters); !bytes.Equal(js.Bytes(), want) {
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
		m := &Monitor{}
		for i := 0; i < n; i++ {
			m.incidents = append(m.incidents, Incident{ID: 7, Kind: KindFlap, Subject: "tor0<->agg2", Start: 5, End: 9, Events: 4, Peak: 6, Detail: "6 transitions in 10s"})
			m.iters = append(m.iters, IterationReport{Iter: 12, Start: 3, End: 8, CommS: 1.25, BaselineS: 1, DeltaFrac: 0.25, Regressed: true, Reroutes: 2, Causes: []int{7}})
		}
		return m
	}
	small, large := timeline(10), timeline(10_000)
	artifacttest.CheckAllocs(t, "incidents.tsv", small.WriteTSV, large.WriteTSV)
	artifacttest.CheckAllocs(t, "incidents.json", small.WriteJSON, large.WriteJSON)
}
