// Package floateq is an hpnlint fixture: the floateq rule must flag exact
// ==/!= between floating-point operands and leave integer comparisons,
// ordered float comparisons and epsilon patterns alone.
package floateq

type bps float64

func equal(a, b float64) bool {
	return a == b // want:floateq "exact floating-point =="
}

func notEqual(a, b float32) bool {
	return a != b // want:floateq "exact floating-point !="
}

func named(a, b bps) bool {
	return a == b // want:floateq "exact floating-point =="
}

func constOperand(u float64) bool {
	return u == 0 // want:floateq "exact floating-point =="
}

// epsilonIsClean: the sanctioned comparison shape.
func epsilonIsClean(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9
}

// orderedIsClean: <, <=, >, >= are fine — only equality is brittle.
func orderedIsClean(a, b float64) bool {
	return a <= b
}

// intsAreClean: integer equality is exact by nature.
func intsAreClean(a, b int) bool {
	return a == b
}

func allowed(u float64) bool {
	return u == 0 //hpnlint:allow floateq -- fixture: exact zero sentinel
}

// A trailing allow covers its own line only: the comparison on the next
// line is still reported.
func trailingAllowOwnLine(a, b, p, q float64) (bool, bool) {
	x := a == b //hpnlint:allow floateq -- fixture: this line only
	y := p == q // want:floateq "exact floating-point =="
	return x, y
}
