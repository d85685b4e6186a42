package netsim

import (
	"slices"

	"hpn/internal/topo"
)

// recomputeFromScratch refills every component, as if every link were
// dirty, so tests can hold the incremental allocation against it.
func (s *Sim) recomputeFromScratch() {
	s.allDirty = true
	s.recompute()
}

// dropMergeMarks forgets the marks routing f set on the components its
// path crosses, as routeFlow would leave them without its merge marking.
// Call it inside the Batch that routed f, before anything else marks.
func (s *Sim) dropMergeMarks(f *Flow) {
	kept := s.dirtyComps[:0]
	for _, ci := range s.dirtyComps {
		if slices.ContainsFunc(f.Path, func(lk topo.LinkID) bool { return s.compOf[lk] == ci }) {
			s.compDirty[ci] = false
			continue
		}
		kept = append(kept, ci)
	}
	s.dirtyComps = kept
}
