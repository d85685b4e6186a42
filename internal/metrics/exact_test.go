package metrics

import (
	"math"
	"testing"
)

// ExactOf keeps every multiple of 2⁻¹² below 2⁶⁴ exactly, truncates finer
// values, saturates at the top of its range and counts values that are not
// positive as zero; sums of up to 2⁵² maximal values do not overflow, the
// mean of equal values is the value, and a difference added back restores
// the sum even across a wrap.
func TestExactSumRange(t *testing.T) {
	top := ExactSum{hi: 1<<12 - 1, lo: math.MaxUint64}
	for _, tc := range []struct {
		rate float64
		want ExactSum
	}{
		{0, ExactSum{}},
		{-1, ExactSum{}},
		{math.NaN(), ExactSum{}},
		{math.SmallestNonzeroFloat64, ExactSum{}},
		{0x1p-13, ExactSum{}},
		{0x1p-12, ExactSum{lo: 1}},
		{0x1.8p-12, ExactSum{lo: 1}},
		{1.5, ExactSum{lo: 6144}},
		{0x1p40 + 0x1p-12, ExactSum{lo: 1<<52 + 1}},
		{0x1p52, ExactSum{hi: 1}},
		{0x1p63 + 0x1p11, ExactSum{hi: 1 << 11, lo: 1 << 23}},
		{0x1.fffffffffffffp63, ExactSum{hi: 1<<12 - 1, lo: math.MaxUint64 - (1<<23 - 1)}},
		{0x1p64, top},
		{math.MaxFloat64, top},
		{math.Inf(1), top},
	} {
		if got := ExactOf(tc.rate); got != tc.want {
			t.Errorf("ExactOf(%v) = %+v, want %+v", tc.rate, got, tc.want)
		}
	}

	// 2⁵² maximal rates, summed by doubling, fill the 128 bits without
	// overflow, and their mean is the saturated rate.
	s := top
	for i := 0; i < 52; i++ {
		s = s.Plus(s)
	}
	if want := (ExactSum{hi: math.MaxUint64, lo: math.MaxUint64 &^ (1<<52 - 1)}); s != want {
		t.Fatalf("2^52 maximal rates sum to %+v, want %+v", s, want)
	}
	if got, want := s.Mean(1<<52), top.Mean(1); got != want || want != 0x1p64 {
		t.Fatalf("mean of 2^52 maximal rates %v, want %v = 2^64", got, want)
	}

	// A million equal link-speed rates have exactly the rate as mean.
	for _, rate := range []float64{4e11, 1e9 / 3, 0x1p40 + 0x1p-12} {
		var s ExactSum
		const n = 1_000_000
		for i := 0; i < n; i++ {
			s = s.Plus(ExactOf(rate))
		}
		if got := s.Mean(n); got != ExactOf(rate).Mean(1) || got > rate || rate-got > 0x1p-12 {
			t.Errorf("mean of %d rates %v is %v", n, rate, got)
		}
	}

	one := ExactOf(0x1p-12)
	if got := top.Minus(one).Plus(one); got != top {
		t.Errorf("top - 1 + 1 = %+v, want %+v", got, top)
	}
	if got := (ExactSum{}).Minus(top).Plus(top); got != (ExactSum{}) {
		t.Errorf("0 - top + top = %+v, want 0", got)
	}
}
