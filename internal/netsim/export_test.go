package netsim

// recomputeFromScratch refills every component, as if every link were
// dirty, so tests can hold the incremental allocation against it.
func (s *Sim) recomputeFromScratch() {
	s.allDirty = true
	s.recompute()
}
