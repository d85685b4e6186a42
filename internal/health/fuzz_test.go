package health

import (
	"bytes"
	"os"
	"testing"
)

// timelineMonitor returns a monitor holding incs and the iteration reports
// iters, stored as the monitor stores its own: the first report's Start is
// the watch start, and each later Start, and every DeltaFrac and Regressed,
// follow from the other fields.
func timelineMonitor(incs []Incident, iters []IterationReport) *Monitor {
	m := &Monitor{incidents: incs}
	for i := range iters {
		it := &iters[i]
		if i == 0 {
			m.watchedAt = it.Start
		}
		rec := iterRecord{end: it.End, commS: it.CommS, baselineS: it.BaselineS,
			iter: int32(it.Iter), reroutes: int32(it.Reroutes)}
		rec.causes[0] = uint32(len(m.causes))
		m.causes = append(m.causes, it.Causes...)
		rec.causes[1] = uint32(len(m.causes))
		m.iters.Append(rec)
	}
	return m
}

// reports returns the monitor's iteration reports.
func reports(m *Monitor) []IterationReport {
	var out []IterationReport
	m.eachReport(func(it *IterationReport) { out = append(out, *it) })
	return out
}

func timelineTSV(t *testing.T, incs []Incident, iters []IterationReport) []byte {
	var buf bytes.Buffer
	if err := timelineMonitor(incs, iters).WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzParseTSV feeds the timeline parser arbitrary input. It must never
// panic, and whatever it accepts must write back to a timeline that
// parses again, to as many incidents and iterations, and writes the same
// bytes. (Rows sharing an ID may come back in another order: the writer
// sorts by start time, the parser by ID. An iteration's Start, DeltaFrac
// and Regressed are written as the monitor derives them, not as parsed.)
func FuzzParseTSV(f *testing.F) {
	seed, err := os.ReadFile("testdata/incidents.tsv")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(tsvHeader + "\n"))
	f.Add([]byte(tsvHeader + "\nincident\t3\tstall\tfabric\t5\t-1\ttrue\t2\tNaN\tsay \"hi\"\t-1\t0\t0\t0\tfalse\t-1\t-\n" +
		"iteration\t-1\t-\t-\t0\t9\tfalse\t-1\t0\t-\t1\t-0\t1e21\t+Inf\ttrue\t2\t3+1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		incs, iters, err := ParseTSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		w1 := timelineTSV(t, incs, iters)
		incs2, iters2, err := ParseTSV(bytes.NewReader(w1))
		if err != nil {
			t.Fatalf("the written timeline does not parse: %v\n%q", err, w1)
		}
		if len(incs2) != len(incs) || len(iters2) != len(iters) {
			t.Fatalf("%d incidents and %d iterations came back as %d and %d", len(incs), len(iters), len(incs2), len(iters2))
		}
		if w2 := timelineTSV(t, incs2, iters2); !bytes.Equal(w1, w2) {
			t.Fatalf("second write differs:\n%q\n%q", w1, w2)
		}
	})
}
