package telemetry

import "testing"

func TestMetricsDeltaRoundTrip(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("a_total", "")
	b := r.Counter("b_total", "")
	h := r.Histogram("lat", "", []float64{1, 10, 100})

	a.Add(3)
	base := r.SnapshotMetrics()

	a.Add(2)
	b.Inc()
	h.Observe(5)
	h.Observe(500)
	d := r.SnapshotMetrics().DeltaSince(base)
	if len(d.counters) == 0 && len(d.hists) == 0 {
		t.Fatal("delta of a moved registry is empty")
	}

	// Applying the delta once more must move everything by the same amount.
	r.ApplyMetricsDelta(d)
	if got := a.Value(); got != 7 {
		t.Errorf("a = %v after re-apply, want 7", got)
	}
	if got := b.Value(); got != 2 {
		t.Errorf("b = %v after re-apply, want 2", got)
	}
	if _, _, sum, n := h.snapshot(); n != 4 || sum != 1010 {
		t.Errorf("hist count, sum = %d, %v after re-apply, want 4, 1010", n, sum)
	}
}

func TestMetricsDeltaElidesUnmoved(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("a_total", "")
	r.Counter("quiet_total", "").Add(9)
	r.Histogram("quiet_lat", "", []float64{1}).Observe(0.5)

	base := r.SnapshotMetrics()
	a.Inc()
	d := r.SnapshotMetrics().DeltaSince(base)
	if len(d.counters) != 1 || d.counters[0].name != "a_total" {
		t.Fatalf("counters = %+v, want only a_total", d.counters)
	}
	if len(d.hists) != 0 {
		t.Fatalf("hists = %+v, want none", d.hists)
	}
}

func TestMergeDeltasAndExclude(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("a_total", "")
	b := r.Counter("b_total", "")

	s0 := r.SnapshotMetrics()
	a.Add(1)
	s1 := r.SnapshotMetrics()
	a.Add(2)
	b.Add(4)
	s2 := r.SnapshotMetrics()

	m := MergeDeltas(s1.DeltaSince(s0), s2.DeltaSince(s1), nil)
	if len(m.counters) != 2 {
		t.Fatalf("merged counters = %+v, want 2 entries", m.counters)
	}
	if m.counters[0].name != "a_total" || m.counters[0].d != 3 {
		t.Errorf("merged a = %+v, want 3", m.counters[0])
	}

	m.Exclude([]string{"a_total"})
	if len(m.counters) != 1 || m.counters[0].name != "b_total" {
		t.Fatalf("after Exclude, counters = %+v, want only b_total", m.counters)
	}
	m.Exclude(nil)
	var nilDelta *MetricsDelta
	nilDelta.Exclude([]string{"a_total"}) // must not panic
}
