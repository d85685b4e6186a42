package inband

import (
	"bytes"
	"math"
	"os"
	"testing"
)

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.Bits) != math.Float64bits(y.Bits) ||
			math.Float64bits(x.QueueByteS) != math.Float64bits(y.QueueByteS) {
			return false
		}
		x.Bits, x.QueueByteS, y.Bits, y.QueueByteS = 0, 0, 0, 0
		if x != y {
			return false
		}
	}
	return true
}

// FuzzParseTSV feeds the in-band TSV parser arbitrary input. It must never
// panic, and whatever it accepts must write back to a TSV that parses to
// the same records and writes the same bytes again.
func FuzzParseTSV(f *testing.F) {
	seed, err := os.ReadFile("testdata/inband.tsv")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(tsvHeader))
	f.Add([]byte(tsvHeader + "-1\t0\t3\t5\ta\"b>c\\d\ttor-agg\t0\t9\tNaN\t-0\ttrue\tn\t18446744073709551615\t2\t1\tfalse\tT\t1\t18446744073709551615\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ParseTSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var w1, w2 bytes.Buffer
		if err := (&Collector{recs: recs}).WriteTSV(&w1); err != nil {
			t.Fatal(err)
		}
		again, err := ParseTSV(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("the written TSV does not parse: %v\n%q", err, w1.Bytes())
		}
		if !sameRecords(recs, again) {
			t.Fatalf("records changed across a write:\n%+v\n%+v", recs, again)
		}
		if err := (&Collector{recs: again}).WriteTSV(&w2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("second write differs:\n%q\n%q", w1.Bytes(), w2.Bytes())
		}
	})
}
