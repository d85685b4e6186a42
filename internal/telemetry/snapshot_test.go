package telemetry

import (
	"slices"
	"strings"
	"testing"
)

// histState returns a histogram's bucket counts, observation count and
// nanosecond sum.
func histState(h *Histogram) (counts []uint64, n uint64, sumNS int64) {
	vals := h.appendValues(nil)
	n, sumNS = histTotals(vals)
	return vals[:len(h.counts)], n, sumNS
}

// diff returns a-b for two Values vectors, a taken no earlier than b.
func diff(a, b []uint64) []uint64 {
	d := slices.Clone(a)
	for i, v := range b {
		d[i] -= v
	}
	return d
}

func TestValuesDeltaRoundTrip(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("a_total", "")
	b := r.Counter("b_total", "")
	h := r.Histogram("lat", "", []float64{1, 10, 100})

	a.Inc()
	a.Inc()
	a.Inc()
	base := r.Values(nil)

	a.Inc()
	a.Inc()
	b.Inc()
	h.Observe(5e9)
	h.Observe(500e9 + 1)
	d := diff(r.Values(nil), base)

	// Adding the difference once more must move everything by the same
	// amount, the nanosecond sum included.
	r.AddValues(d)
	if got := a.Value(); got != 7 {
		t.Errorf("a = %d after re-apply, want 7", got)
	}
	if got := b.Value(); got != 2 {
		t.Errorf("b = %d after re-apply, want 2", got)
	}
	counts, n, sumNS := histState(h)
	if n != 4 || sumNS != 1010e9+2 {
		t.Errorf("hist count, sum = %d, %dns after re-apply, want 4, %dns", n, sumNS, int64(1010e9+2))
	}
	if want := []uint64{0, 2, 0, 2}; !slices.Equal(counts, want) {
		t.Errorf("hist buckets = %v after re-apply, want %v", counts, want)
	}
}

func TestValuesDeltaLeavesUnmoved(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("a_total", "")
	quiet := r.Counter("quiet_total", "")
	quiet.Inc()
	lat := r.Histogram("quiet_lat", "", []float64{1})
	lat.Observe(5e8)

	base := r.Values(nil)
	a.Inc()
	d := diff(r.Values(nil), base)
	if want := []uint64{1, 0, 0, 0, 0, 0}; !slices.Equal(d, want) {
		t.Fatalf("difference = %v, want %v", d, want)
	}
	r.AddValues(d)
	if a.Value() != 2 || quiet.Value() != 1 {
		t.Errorf("a, quiet = %d, %d, want 2, 1", a.Value(), quiet.Value())
	}
	if _, n, sumNS := histState(lat); n != 1 || sumNS != 5e8 {
		t.Errorf("quiet histogram moved: n=%d sum=%dns", n, sumNS)
	}
}

// A window with a live section in the middle replays as the whole
// window's movement less the live section's, the way the memo recorder
// takes it; the order the differences are taken in does not matter.
func TestValuesDeltaSumsHalves(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("a_total", "")
	b := r.Counter("b_total", "")
	h := r.Histogram("lat", "", []float64{1})

	s0 := r.Values(nil)
	a.Inc()
	h.Observe(3)
	s1 := r.Values(nil) // live section begins
	b.Inc()
	s2 := r.Values(nil) // live section ends
	a.Inc()
	a.Inc()
	h.Observe(2e9)
	s3 := r.Values(nil)

	whole := diff(diff(s3, s0), diff(s2, s1))
	halves := diff(s1, s0)
	for i, v := range diff(s3, s2) {
		halves[i] += v
	}
	if !slices.Equal(whole, halves) {
		t.Fatalf("whole less live = %v, sum of halves = %v", whole, halves)
	}
	if want := []uint64{3, 0, 1, 1, 2, 2e9 + 3}; !slices.Equal(whole, want) {
		t.Fatalf("window movement = %v, want %v", whole, want)
	}
}

func TestValuesCountNewMetricsFromZero(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("a_total", "")
	a.Inc()
	base := r.Values(nil)

	late := r.Counter("late_total", "")
	late.Inc()
	late.Inc()
	h := r.Histogram("late_lat", "", []float64{1})
	h.Observe(7)
	d := diff(r.Values(nil), base)
	if want := []uint64{0, 2, 1, 0, 1, 7}; !slices.Equal(d, want) {
		t.Fatalf("difference = %v, want %v", d, want)
	}

	// A metric registered after the later vector lies past the end of the
	// difference and is left alone.
	after := r.Counter("after_total", "")
	after.Inc()
	r.AddValues(d)
	if late.Value() != 4 || after.Value() != 1 {
		t.Errorf("late, after = %d, %d, want 4, 1", late.Value(), after.Value())
	}
	if _, n, sumNS := histState(h); n != 2 || sumNS != 14 {
		t.Errorf("late histogram n, sum = %d, %dns, want 2, 14ns", n, sumNS)
	}
}

func TestAbsorbCreatesMissingMetrics(t *testing.T) {
	src := NewRegistry()
	src.Counter("flows_total", "flows").Inc()
	src.Counter("idle_total", "never moved")
	src.CounterFunc("incidents_total", "incidents", func() uint64 { return 3 })
	src.Gauge("open", "", func() float64 { return 1 })
	src.Histogram("fct_seconds", "fct", []float64{1, 2}).Observe(15e8)

	dst := NewRegistry()
	dst.Counter("flows_total", "").Inc()
	dst.Absorb(src)
	dst.Absorb(src)
	var js strings.Builder
	if err := dst.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	want := `{
"fct_seconds_bucket_le_1": 0,
"fct_seconds_bucket_le_2": 2,
"fct_seconds_count": 2,
"fct_seconds_sum": 3,
"flows_total": 3,
"incidents_total": 6
}
`
	if js.String() != want {
		t.Errorf("absorbed registry:\n%s\nwant\n%s", js.String(), want)
	}
	// The func-backed counter lands as a plain one, so the fold holds a
	// value of its own.
	if got := dst.Values(nil); !slices.Equal(got, []uint64{3, 0, 2, 0, 2, 3e9, 6}) {
		t.Errorf("absorbed Values = %v", got)
	}
}

func TestCounterFuncExportsButHoldsNoValue(t *testing.T) {
	r := NewRegistry()
	var n uint64
	r.CounterFunc("incidents_total", "incidents opened", func() uint64 { return n })
	c := r.Counter("flows_total", "")
	c.Inc()
	n = 4

	if got := r.Values(nil); !slices.Equal(got, []uint64{1}) {
		t.Errorf("Values = %v, want only the stored counter", got)
	}
	var prom, js strings.Builder
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# HELP incidents_total incidents opened\n", "# TYPE incidents_total counter\n", "\nincidents_total 4\n"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("Prometheus export lacks %q:\n%s", want, prom.String())
		}
	}
	if !strings.Contains(js.String(), `"incidents_total": 4`) {
		t.Errorf("JSON export lacks the func-backed counter:\n%s", js.String())
	}
}

func TestRegistryRejectsKindClash(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("registering a counter's name as a gauge did not panic")
		}
	}()
	r.Gauge("x", "", func() float64 { return 0 })
}
