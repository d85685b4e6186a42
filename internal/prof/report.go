package prof

import (
	"fmt"
	"io"
	"sort"
)

// Report writes a single profile as a human-readable table sorted by wall
// time descending, with each phase's share of the total. Count-only phases
// (tallied through Add, never timed) print "-" in the wall, ns/op and
// share columns: they have a count, not a cost.
func Report(p *Profile, w io.Writer) {
	phases := make([]PhaseStat, len(p.Phases))
	copy(phases, p.Phases)
	// Wall-descending order; ties broken by name so the report is stable.
	sort.Slice(phases, func(i, j int) bool { return less(phases[i], phases[j]) })
	var total int64
	for _, st := range phases {
		total += st.WallNS
	}
	fmt.Fprintf(w, "profile: %d phase(s), %s total attributed wall, gomaxprocs %d\n",
		len(phases), fmtWall(total), p.GoMaxProcs)
	fmt.Fprintf(w, "%-24s %12s %12s %12s %8s %12s\n",
		"phase", "count", "wall", "ns/op", "share", "allocs")
	for _, st := range phases {
		if st.Count > 0 && st.WallNS == 0 {
			fmt.Fprintf(w, "%-24s %12d %12s %12s %8s %12d\n",
				st.Name, st.Count, "-", "-", "-", st.Allocs)
			continue
		}
		share := 0.0
		if total > 0 {
			share = float64(st.WallNS) / float64(total) * 100
		}
		fmt.Fprintf(w, "%-24s %12d %12s %12.0f %7.1f%% %12d\n",
			st.Name, st.Count, fmtWall(st.WallNS), nsPerOp(st), share, st.Allocs)
	}
}

func less(a, b PhaseStat) bool {
	if a.WallNS != b.WallNS {
		return a.WallNS > b.WallNS
	}
	return a.Name < b.Name
}

// nsPerOp is wall time per occurrence; 0 when the phase never ran.
func nsPerOp(st PhaseStat) float64 {
	if st.Count == 0 {
		return 0
	}
	return float64(st.WallNS) / float64(st.Count)
}

// fmtWall renders nanoseconds with an adaptive unit.
func fmtWall(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.1fus", float64(ns)/1e3)
	}
}
