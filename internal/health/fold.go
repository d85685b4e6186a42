package health

import (
	"fmt"
	"math"

	"hpn/internal/netsim"
)

// --- Memo replay folding (netsim.Summarizer) ---------------------------
//
// A steady-state memo window half holds only routed and completed flows.
// Handed to the monitor event by event, such a half changes two things:
// notePath adds each routed tuple to its ECMP group's seen set, and
// noteCompletion judges each completion against its size class. Once the
// half has been delivered live, every tuple in it is seen, and seen sets
// only grow, so notePath is a no-op on every later replay. A completion
// that no detector can judge degraded reduces noteCompletion to
// "sum += rate; n++". Class sums are exact integers (rateSum), so the
// summary keeps each class's count and total, and a fold adds the total
// in one step and lands the very sum delivery would reach.

// foldMargin widens the degraded-throughput guard past the rounding of the
// class mean the detector would compute mid-half.
const foldMargin = 1e-6

// windowFold is the monitor's summary of one recorded window half: per
// size class, the count, total and range of the half's completion rates.
type windowFold struct{ classes []classFold }

type classFold struct {
	cs       *classState
	n        int
	total    rateSum
	min, max float64
}

func (wf *windowFold) add(cs *classState, rate float64) {
	i := 0
	for i < len(wf.classes) && wf.classes[i].cs != cs {
		i++
	}
	if i == len(wf.classes) {
		wf.classes = append(wf.classes, emptyFold(cs))
	}
	wf.classes[i].add(rate)
}

func emptyFold(cs *classState) classFold {
	return classFold{cs: cs, min: math.Inf(1), max: math.Inf(-1)}
}

func (c *classFold) add(rate float64) {
	c.n++
	c.total = c.total.plus(rateSumOf(rate))
	c.min, c.max = min(c.min, rate), max(c.max, rate)
}

// Summarize returns the monitor's summary of a recorded window half, or nil
// when the half cannot be folded: it holds an event other than a routed or
// completed flow, a flow routed into a blackhole (which arms the sweep), or
// a hashed hop whose tuple its group has not seen.
func (m *Monitor) Summarize(evs [][]netsim.Event) any {
	wf := &windowFold{}
	if !m.foldable(evs, wf.add) {
		return nil
	}
	return wf
}

// ApplySummary folds a half summarized by Summarize into the size-class
// sums, or returns false, touching nothing, unless no completion in the
// half could be judged degraded. Within a half a class mean stays at most
// the larger of its current value and the half's fastest rate, so a class
// passes when its slowest rate is at least degradedFraction of that bound
// (widened by foldMargin).
func (m *Monitor) ApplySummary(sum any) bool {
	wf := sum.(*windowFold)
	for i := range wf.classes {
		c := &wf.classes[i]
		top := c.max
		if cs := c.cs; cs.n > 0 {
			top = max(top, cs.sum.mean(cs.n))
		}
		if !(c.min >= degradedFraction*top*(1+foldMargin)) {
			return false
		}
	}
	for i := range wf.classes {
		c := &wf.classes[i]
		c.cs.sum = c.cs.sum.plus(c.total)
		c.cs.n += c.n
	}
	return true
}

// foldable walks a window half, calling visit with the class and rate of
// every judged completion, and reports whether the half can be folded (see
// Summarize). It reads detector state and changes none.
func (m *Monitor) foldable(evs [][]netsim.Event, visit func(cs *classState, rate float64)) bool {
	for _, chunk := range evs {
		for i := range chunk {
			e := &chunk[i]
			switch e.Kind {
			case netsim.EvFlowRouted:
				if e.Flow.Stalled {
					return false
				}
				for j := range e.Hops {
					h := &e.Hops[j]
					if !judged(h) {
						continue
					}
					gi, ok := m.groupIdx[m.groupOf(h)]
					if !ok {
						return false
					}
					if _, seen := m.groupList[gi].seen[e.Flow.Tuple]; !seen {
						return false
					}
				}
			case netsim.EvFlowDone:
				rate, ok := completionRate(e.At, &e.Flow)
				if !ok {
					continue
				}
				cs := m.findClass(math.Ilogb(e.Flow.Bits))
				if cs == nil {
					return false
				}
				visit(cs, rate)
			default:
				return false
			}
		}
	}
	return true
}

// VerifySummary re-derives a summary from the half evs and reports, naming
// the size class, where it differs bitwise from sum ("" when it matches).
// A rate is the difference of two stamps one replay shifts alike, so the
// comparison holds after any replay. It allocates nothing while the two
// match; the hpncheck build of memo runs it on every applied fold.
func (m *Monitor) VerifySummary(evs [][]netsim.Event, sum any) string {
	wf := sum.(*windowFold)
	total := 0
	if !m.foldable(evs, func(*classState, float64) { total++ }) {
		return "the half is no longer foldable"
	}
	for i := range wf.classes {
		c := &wf.classes[i]
		again := emptyFold(c.cs)
		m.foldable(evs, func(cs *classState, rate float64) {
			if cs == c.cs {
				again.add(rate)
			}
		})
		if again.n != c.n || again.total != c.total || math.Float64bits(again.min) != math.Float64bits(c.min) ||
			math.Float64bits(again.max) != math.Float64bits(c.max) {
			return fmt.Sprintf("class %s: re-derived %d rates summing to %v bit/s in [%v, %v], summary has %d summing to %v in [%v, %v]",
				c.cs.subject, again.n, again.total.mean(1), again.min, again.max, c.n, c.total.mean(1), c.min, c.max)
		}
		total -= again.n
	}
	if total != 0 {
		return fmt.Sprintf("%d completions in classes the summary lacks", total)
	}
	return ""
}
