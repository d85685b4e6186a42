// Package metrics provides the measurement primitives shared by every
// experiment harness: time series and distributions (CDF/percentiles).
// All types are plain in-memory values; formatting for the
// benchmark tables lives with the harness, not here.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Point is one sample of a time series: a value observed at virtual time T
// (seconds since experiment start).
type Point struct {
	T float64
	V float64
}

// Series is an append-only time series. The zero value is ready to use.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t, v float64) { s.Points = append(s.Points, Point{t, v}) }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// Mean returns the arithmetic mean of the values, or 0 if empty.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// Max returns the maximum value, or 0 if empty.
func (s *Series) Max() float64 {
	m := math.Inf(-1)
	for _, p := range s.Points {
		if p.V > m {
			m = p.V
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// Min returns the minimum value, or 0 if empty.
func (s *Series) Min() float64 {
	m := math.Inf(1)
	for _, p := range s.Points {
		if p.V < m {
			m = p.V
		}
	}
	if math.IsInf(m, 1) {
		return 0
	}
	return m
}

// MeanAfter returns the mean of values with T >= t0; useful for skipping
// warm-up transients.
func (s *Series) MeanAfter(t0 float64) float64 {
	sum, n := 0.0, 0
	for _, p := range s.Points {
		if p.T >= t0 {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Window returns the samples with t0 <= T < t1.
func (s *Series) Window(t0, t1 float64) []Point {
	var out []Point
	for _, p := range s.Points {
		if p.T >= t0 && p.T < t1 {
			out = append(out, p)
		}
	}
	return out
}

// Downsample buckets the series into fixed-width time bins and returns one
// point per bin holding the bin mean. Mirrors the paper's "averaged every
// 10s" plots.
func (s *Series) Downsample(binWidth float64) *Series {
	if binWidth <= 0 || len(s.Points) == 0 {
		return &Series{Name: s.Name}
	}
	type agg struct {
		sum float64
		n   int
	}
	bins := map[int]*agg{}
	for _, p := range s.Points {
		b := int(p.T / binWidth)
		a := bins[b]
		if a == nil {
			a = &agg{}
			bins[b] = a
		}
		a.sum += p.V
		a.n++
	}
	keys := make([]int, 0, len(bins))
	for k := range bins {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := &Series{Name: s.Name}
	for _, k := range keys {
		a := bins[k]
		out.Add((float64(k)+0.5)*binWidth, a.sum/float64(a.n))
	}
	return out
}

// Dist is a collection of scalar samples supporting percentile and CDF
// queries. The zero value is ready to use.
type Dist struct {
	Name    string
	samples []float64
	sorted  bool
}

// Add appends a sample.
func (d *Dist) Add(v float64) {
	d.samples = append(d.samples, v)
	d.sorted = false
}

func (d *Dist) sortSamples() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation, or 0 if empty.
func (d *Dist) Percentile(p float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.sortSamples()
	if p <= 0 {
		return d.samples[0]
	}
	if p >= 100 {
		return d.samples[len(d.samples)-1]
	}
	rank := p / 100 * float64(len(d.samples)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(d.samples) {
		return d.samples[lo]
	}
	return d.samples[lo]*(1-frac) + d.samples[lo+1]*frac
}

// CDFAt returns the empirical CDF evaluated at x: P(sample <= x).
func (d *Dist) CDFAt(x float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.sortSamples()
	n := sort.SearchFloat64s(d.samples, math.Nextafter(x, math.Inf(1)))
	return float64(n) / float64(len(d.samples))
}

// HumanBytes formats a byte count the way the paper labels message sizes
// (1M, 64M, 1G, ...).
func HumanBytes(b float64) string {
	switch {
	case b >= 1<<30:
		return trimZero(b/(1<<30)) + "G"
	case b >= 1<<20:
		return trimZero(b/(1<<20)) + "M"
	case b >= 1<<10:
		return trimZero(b/(1<<10)) + "K"
	default:
		return trimZero(b) + "B"
	}
}

func trimZero(v float64) string {
	//hpnlint:allow floateq -- formatting choice: exact integers render without a decimal point
	if v == math.Trunc(v) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.1f", v)
}
