package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSeriesStats(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Add(float64(i), float64(i))
	}
	if s.Mean() != 4.5 {
		t.Fatalf("Mean = %v, want 4.5", s.Mean())
	}
	if s.Max() != 9 || s.Min() != 0 {
		t.Fatalf("Max/Min = %v/%v", s.Max(), s.Min())
	}
	if got := s.MeanAfter(5); got != 7 {
		t.Fatalf("MeanAfter(5) = %v, want 7", got)
	}
	if n := len(s.Window(2, 5)); n != 3 {
		t.Fatalf("Window(2,5) has %d points, want 3", n)
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 || s.MeanAfter(0) != 0 {
		t.Fatal("empty series stats should all be 0")
	}
}

func TestDownsample(t *testing.T) {
	var s Series
	for i := 0; i < 100; i++ {
		s.Add(float64(i)*0.1, 2.0) // 10s of samples at 10Hz, constant value
	}
	d := s.Downsample(1.0)
	if d.Len() != 10 {
		t.Fatalf("Downsample bins = %d, want 10", d.Len())
	}
	for _, p := range d.Points {
		if p.V != 2.0 {
			t.Fatalf("bin mean = %v, want 2", p.V)
		}
	}
	// Bin centers must be sorted.
	if !sort.SliceIsSorted(d.Points, func(i, j int) bool { return d.Points[i].T < d.Points[j].T }) {
		t.Fatal("downsampled points not time-ordered")
	}
}

func TestPercentile(t *testing.T) {
	var d Dist
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	if p := d.Percentile(0); p != 1 {
		t.Fatalf("P0 = %v", p)
	}
	if p := d.Percentile(100); p != 100 {
		t.Fatalf("P100 = %v", p)
	}
	if p := d.Percentile(50); math.Abs(p-50.5) > 0.01 {
		t.Fatalf("P50 = %v, want 50.5", p)
	}
}

func TestCDF(t *testing.T) {
	var d Dist
	for _, v := range []float64{1, 1, 2, 3} {
		d.Add(v)
	}
	if got := d.CDFAt(1); got != 0.5 {
		t.Fatalf("CDFAt(1) = %v, want 0.5", got)
	}
	if got := d.CDFAt(3); got != 1 {
		t.Fatalf("CDFAt(3) = %v, want 1", got)
	}
	if got := d.CDFAt(0); got != 0 {
		t.Fatalf("CDFAt(0) = %v, want 0", got)
	}
}

// Property: percentiles are monotone in p and bounded by the sample range.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var d Dist
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			d.Add(v)
		}
		if len(d.samples) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := d.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return d.Percentile(0) <= d.Percentile(100)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[float64]string{
		1 << 20:       "1M",
		4 << 20:       "4M",
		1 << 30:       "1G",
		4 << 30:       "4G",
		512:           "512B",
		1536:          "1.5K",
		256 * 1 << 20: "256M",
	}
	for in, want := range cases {
		if got := HumanBytes(in); got != want {
			t.Errorf("HumanBytes(%v) = %q, want %q", in, got, want)
		}
	}
}
