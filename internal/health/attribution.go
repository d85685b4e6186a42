package health

import (
	"fmt"
	"strconv"
	"strings"

	"hpn/internal/sim"
	"hpn/internal/workload"
)

// IterationReport is one training iteration correlated against the fabric
// incident timeline: what the iteration's gradient sync cost, how that
// compares to the healthy baseline, and which incidents overlapped it.
type IterationReport struct {
	Iter  int
	Start sim.Time // end of the previous iteration (or watch start)
	End   sim.Time
	CommS float64 // this iteration's gradient-sync seconds

	// BaselineS is the healthy-iteration mean comm time at judgment
	// (0 until baselineIters (2) healthy iterations completed).
	BaselineS float64
	// DeltaFrac is (CommS-BaselineS)/BaselineS, 0 without a baseline.
	DeltaFrac float64
	Regressed bool

	// Reroutes counts reroute passes that fired during the iteration.
	Reroutes int
	// Causes lists the IDs of incidents whose lifetime overlapped the
	// iteration window, ascending.
	Causes []int
}

// iterRecord is the stored form of an IterationReport: 40 pointer-free
// bytes, so the reports of a long run neither grow the heap the collector
// scans nor copy as they accumulate. Start is the previous report's End
// (the watch start for the first), DeltaFrac and Regressed follow from
// CommS and BaselineS (see judge), and Causes is the range causes of the
// monitor's shared cause list. Iteration numbers and reroute counts stay
// below 2³¹.
type iterRecord struct {
	end              sim.Time
	commS, baselineS float64
	iter, reroutes   int32
	causes           [2]uint32
}

// WatchTrainer hooks the trainer's per-iteration callback so every
// completed iteration is judged against the healthy baseline and
// correlated with overlapping incidents. An existing OnIteration callback
// is chained after the monitor's. One trainer per monitor: the attribution
// window assumes sequential iterations.
func (m *Monitor) WatchTrainer(tr *workload.Trainer) {
	m.watchedAt = m.Net.Eng.Now()
	m.lastIterEnd = m.watchedAt
	m.lastIterRR = m.reroutes
	prev := tr.OnIteration
	tr.OnIteration = func(iter int, now sim.Time) {
		m.noteIteration(tr, iter, now)
		if prev != nil {
			prev(iter, now)
		}
	}
}

func (m *Monitor) noteIteration(tr *workload.Trainer, iter int, now sim.Time) {
	comm := 0.0
	if n := tr.CommSeconds.Len(); n > 0 {
		comm = tr.CommSeconds.Points[n-1].V
	}
	rec := iterRecord{end: now, commS: comm, iter: int32(iter), reroutes: int32(m.reroutes - m.lastIterRR)}
	rec.causes[0] = uint32(len(m.causes))
	for i := range m.incidents {
		inc := &m.incidents[i]
		if inc.Start <= now && (inc.Open || inc.End >= m.lastIterEnd) {
			m.causes = append(m.causes, inc.ID)
		}
	}
	rec.causes[1] = uint32(len(m.causes))
	if m.healthyN >= baselineIters {
		rec.baselineS = m.healthySum / float64(m.healthyN)
	}
	// Only incident-free, non-regressed iterations feed the baseline, so a
	// long incident cannot drag the baseline up and mask itself.
	if _, regressed := judge(comm, rec.baselineS); rec.causes[0] == rec.causes[1] && !regressed {
		m.healthySum += comm
		m.healthyN++
	}
	m.iters.Append(rec)
	m.lastIterEnd, m.lastIterRR = now, m.reroutes
}

// judge returns the DeltaFrac and Regressed of an iteration's comm time
// against its baseline, which is 0 until there is one.
func judge(commS, baselineS float64) (deltaFrac float64, regressed bool) {
	if baselineS > 0 {
		deltaFrac = (commS - baselineS) / baselineS
		return deltaFrac, deltaFrac > commRegressFraction
	}
	return 0, false
}

// eachReport calls f with every iteration report in order, each rendered
// from its record into one reused value.
func (m *Monitor) eachReport(f func(*IterationReport)) {
	var rep IterationReport
	start := m.watchedAt
	for _, c := range m.iters.Chunks() {
		for i := range c {
			r := &c[i]
			rep = IterationReport{Iter: int(r.iter), Start: start, End: r.end, CommS: r.commS,
				BaselineS: r.baselineS, Reroutes: int(r.reroutes)}
			rep.DeltaFrac, rep.Regressed = judge(r.commS, r.baselineS)
			if lo, hi := r.causes[0], r.causes[1]; lo < hi {
				rep.Causes = m.causes[lo:hi:hi]
			}
			f(&rep)
			start = r.end
		}
	}
}

// Verdict renders one iteration's causal line, e.g.
// "iteration 47: +31% comm time (1.31s vs 1.00s) <- flap-storm on
// tor3<->agg2 (#2), 2 reroutes". incs is the monitor's incident list.
func (r *IterationReport) Verdict(incs []Incident) string {
	var b strings.Builder
	fmt.Fprintf(&b, "iteration %d: ", r.Iter)
	if r.BaselineS > 0 {
		fmt.Fprintf(&b, "%s comm time (%.3gs vs %.3gs baseline)", fmtPct(r.DeltaFrac), r.CommS, r.BaselineS)
	} else {
		fmt.Fprintf(&b, "%.3gs comm time (no baseline yet)", r.CommS)
	}
	if len(r.Causes) > 0 {
		b.WriteString(" <- ")
		for i, id := range r.Causes {
			if i > 0 {
				b.WriteString(" + ")
			}
			if id >= 1 && id <= len(incs) {
				inc := &incs[id-1]
				fmt.Fprintf(&b, "%s on %s (#%d)", inc.Kind, inc.Subject, id)
			} else {
				fmt.Fprintf(&b, "#%d", id)
			}
		}
	}
	if r.Reroutes > 0 {
		fmt.Fprintf(&b, ", %d reroute", r.Reroutes)
		if r.Reroutes > 1 {
			b.WriteByte('s')
		}
	}
	return b.String()
}

// appendCauses appends cause IDs joined as "1+3" ("-" when empty), the
// TSV's causes column.
func appendCauses(b []byte, causes []int) []byte {
	if len(causes) == 0 {
		return append(b, '-')
	}
	for i, id := range causes {
		if i > 0 {
			b = append(b, '+')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return b
}

// parseCauses inverts appendCauses.
func parseCauses(s string) ([]int, error) {
	if s == "-" || s == "" {
		return nil, nil
	}
	parts := strings.Split(s, "+")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("health: bad cause list %q: %w", s, err)
		}
		out[i] = v
	}
	return out, nil
}
