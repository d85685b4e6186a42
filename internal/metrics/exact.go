package metrics

import (
	"math"
	"math/bits"
)

// ExactSum is an exact sum of non-negative values: a 128-bit count of 2⁻¹²
// units. Integer addition is associative, so a sum does not depend on the
// order its terms arrive in, and adding a precomputed partial sum equals
// adding its terms one by one. ExactOf truncates a value to a multiple of
// 2⁻¹², which is exact from 2⁴⁰ up, and counts 2⁶⁴ or more as 2⁶⁴ − 2⁻¹²;
// no simulated rate or flow size comes near either end. 2⁵² values sum
// without overflow. The zero value is an empty sum.
type ExactSum struct{ hi, lo uint64 }

// ExactOf returns v as a one-term sum; a value that is not positive counts
// as zero. Each conversion below is exact: scaling by 2¹² only moves the
// exponent, and a value from 2⁵² up is an integer.
func ExactOf(v float64) ExactSum {
	switch {
	case !(v > 0):
		return ExactSum{}
	case v < 0x1p52:
		return ExactSum{lo: uint64(v * 0x1p12)}
	case v < 0x1p64:
		u := uint64(v)
		return ExactSum{hi: u >> 52, lo: u << 12}
	}
	return ExactSum{hi: 1<<12 - 1, lo: math.MaxUint64}
}

// Plus returns a + b.
func (a ExactSum) Plus(b ExactSum) ExactSum {
	lo, carry := bits.Add64(a.lo, b.lo, 0)
	hi, _ := bits.Add64(a.hi, b.hi, carry)
	return ExactSum{hi, lo}
}

// Minus returns a − b. The arithmetic wraps, so (a − b) + b is a whatever
// the operands.
func (a ExactSum) Minus(b ExactSum) ExactSum {
	lo, borrow := bits.Sub64(a.lo, b.lo, 0)
	hi, _ := bits.Sub64(a.hi, b.hi, borrow)
	return ExactSum{hi, lo}
}

// Float returns the sum as a float64.
func (a ExactSum) Float() float64 { return a.Mean(1) }

// Mean returns the sum divided by n > 0. It divides the integer before
// converting it, so the mean of n equal values is that value as ExactOf
// truncated it, never above it.
func (a ExactSum) Mean(n int) float64 {
	d := uint64(n)
	qhi, r := bits.Div64(0, a.hi, d)
	qlo, r := bits.Div64(r, a.lo, d)
	return (float64(qhi)*0x1p64 + float64(qlo) + float64(r)/float64(d)) * 0x1p-12
}
