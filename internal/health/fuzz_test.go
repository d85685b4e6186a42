package health

import (
	"bytes"
	"os"
	"testing"
)

func timelineTSV(t *testing.T, incs []Incident, iters []IterationReport) []byte {
	var buf bytes.Buffer
	if err := (&Monitor{incidents: incs, iters: iters}).WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzParseTSV feeds the timeline parser arbitrary input. It must never
// panic, and whatever it accepts must write back to a timeline that
// parses again, to as many incidents and iterations, and writes the same
// bytes. (Rows sharing an ID may come back in another order: the writer
// sorts by start time, the parser by ID.)
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
