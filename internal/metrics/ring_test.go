package metrics

import (
	"testing"
	"testing/quick"
)

func TestRingUnbounded(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 5000; i++ {
		r.Add(float64(i), float64(i))
	}
	if r.Len() != 5000 {
		t.Fatalf("unbounded ring evicted: len = %d", r.Len())
	}
	if r.cap != 0 {
		t.Errorf("cap = %d, want 0", r.cap)
	}
	if r.At(0).V != 0 || r.At(4999).V != 4999 {
		t.Error("unbounded ring reordered samples")
	}
}

func TestRingBoundedEviction(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Add(float64(i), float64(i*10))
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	want := []float64{60, 70, 80, 90}
	for i, w := range want {
		if got := r.At(i).V; got != w {
			t.Errorf("At(%d).V = %v, want %v", i, got, w)
		}
	}
}

func TestRingPartiallyFilled(t *testing.T) {
	r := NewRing(8)
	r.Add(1, 10)
	r.Add(2, 20)
	if r.Len() != 2 {
		t.Fatalf("len = %d, want 2", r.Len())
	}
	if r.At(0).V != 10 || r.At(1).V != 20 {
		t.Errorf("samples = %v, %v", r.At(0), r.At(1))
	}
}

// TestRingNeverDropsRecentWindow is the bounding property: after any
// sequence of n adds into a ring of capacity c, the ring holds exactly the
// last min(n, c) samples, in order.
func TestRingNeverDropsRecentWindow(t *testing.T) {
	prop := func(capRaw uint8, nRaw uint16) bool {
		c := int(capRaw)%64 + 1 // capacity 1..64
		n := int(nRaw) % 512    // adds 0..511
		r := NewRing(c)
		for i := 0; i < n; i++ {
			r.Add(float64(i), float64(i))
		}
		keep := n
		if keep > c {
			keep = c
		}
		if r.Len() != keep {
			return false
		}
		first := n - keep
		for i := 0; i < keep; i++ {
			if p := r.At(i); p.V != float64(first+i) || p.T != float64(first+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDistEmpty(t *testing.T) {
	var d Dist
	if d.Percentile(50) != 0 {
		t.Error("empty percentile should be 0")
	}
	if d.CDFAt(1) != 0 {
		t.Error("empty CDFAt should be 0")
	}
}

func TestDistSingleSample(t *testing.T) {
	var d Dist
	d.Add(3.5)
	for _, p := range []float64{0, 50, 99, 100} {
		if got := d.Percentile(p); got != 3.5 {
			t.Errorf("Percentile(%v) = %v, want 3.5", p, got)
		}
	}
	if got := d.CDFAt(3.5); got != 1 {
		t.Errorf("CDFAt(sample) = %v, want 1", got)
	}
	if got := d.CDFAt(3.4); got != 0 {
		t.Errorf("CDFAt(below) = %v, want 0", got)
	}
}

func TestSeriesMaxMinAllNegative(t *testing.T) {
	var s Series
	for _, v := range []float64{-5, -1, -9} {
		s.Add(0, v)
	}
	if got := s.Max(); got != -1 {
		t.Errorf("Max = %v, want -1", got)
	}
	if got := s.Min(); got != -9 {
		t.Errorf("Min = %v, want -9", got)
	}
}

func TestSeriesMaxMinEmpty(t *testing.T) {
	var s Series
	if s.Max() != 0 || s.Min() != 0 {
		t.Error("empty series Max/Min should be 0")
	}
}
