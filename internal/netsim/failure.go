package netsim

import (
	"hpn/internal/sim"
	"hpn/internal/telemetry"
	"hpn/internal/topo"
)

// FailCable takes both directions of a cable down. Flows traversing it
// stall immediately (packets stop moving); routing re-converges around it
// after the router's convergence delay, at which point stalled flows are
// re-pathed.
func (s *Sim) FailCable(l topo.LinkID) {
	s.beginMutate()
	defer s.endMutate()
	s.allDirty = true // capacities and flow sets change: refill everything
	now := s.Eng.Now()
	s.Top.SetCableState(l, false)
	s.R.NoteLinkFailed(l, now)
	s.ctrLinkEvents.Inc()
	s.instant("link_down", telemetry.Arg{K: "link", V: int(l)})
	s.publish(Event{Kind: EvLinkDown, At: now, Link: l})
	rev := s.Top.Link(l).Reverse
	for _, f := range s.active {
		if pathHasLink(f.Path, l) || pathHasLink(f.Path, rev) {
			f.Stalled = true
			f.Rate = 0
		}
	}
	s.scheduleReroute(s.R.ConvergenceDelay)
}

// RecoverCable restores a cable. Stalled flows are re-pathed after a short
// re-advertisement delay; healthy flows are left untouched (real ECMP does
// remap some flows when a member returns, but moving working flows never
// changes aggregate fluid rates on a symmetric fabric).
func (s *Sim) RecoverCable(l topo.LinkID) {
	s.beginMutate()
	defer s.endMutate()
	// No runnable flow crosses a down link (routing stalls it instead), so
	// a recovery changes no filled component's capacity today; marking
	// keeps clean-component reuse exact without relying on that.
	s.allDirty = true
	s.Top.SetCableState(l, true)
	s.R.NoteLinkRecovered(l)
	s.ctrLinkEvents.Inc()
	s.instant("link_up", telemetry.Arg{K: "link", V: int(l)})
	s.publish(Event{Kind: EvLinkUp, At: s.Eng.Now(), Link: l})
	s.scheduleReroute(200 * sim.Millisecond)
}

// FailNode crashes a switch: every flow transiting it stalls. No program
// calls it; it stays as the node-failure chain (the §4 ToR crash) that the
// allocator-differential and route-cache tests drive.
func (s *Sim) FailNode(n topo.NodeID) {
	s.beginMutate()
	defer s.endMutate()
	s.allDirty = true
	now := s.Eng.Now()
	s.Top.SetNodeState(n, false)
	s.R.NoteNodeFailed(n, now)
	s.ctrLinkEvents.Inc()
	s.instant("node_down", telemetry.Arg{K: "node", V: int(n)},
		telemetry.Arg{K: "name", V: s.Top.Node(n).Name})
	s.publish(Event{Kind: EvNodeDown, At: now, Node: n})
	for _, f := range s.active {
		for _, lk := range f.Path {
			link := s.Top.Link(lk)
			if link.From == n || link.To == n {
				f.Stalled = true
				f.Rate = 0
				break
			}
		}
	}
	s.scheduleReroute(s.R.ConvergenceDelay)
}

// RecoverNode restores a crashed switch; see FailNode for why it stays.
func (s *Sim) RecoverNode(n topo.NodeID) {
	s.beginMutate()
	defer s.endMutate()
	s.allDirty = true // see RecoverCable
	s.Top.SetNodeState(n, true)
	s.R.NoteNodeRecovered(n)
	s.ctrLinkEvents.Inc()
	s.instant("node_up", telemetry.Arg{K: "node", V: int(n)},
		telemetry.Arg{K: "name", V: s.Top.Node(n).Name})
	s.publish(Event{Kind: EvNodeUp, At: s.Eng.Now(), Node: n})
	s.scheduleReroute(200 * sim.Millisecond)
}

func pathHasLink(path []topo.LinkID, l topo.LinkID) bool {
	for _, p := range path {
		if p == l {
			return true
		}
	}
	return false
}

// scheduleReroute arms a single pending reroute pass after delay (the BGP /
// host-route convergence time). Multiple triggers collapse into the
// earliest pass; flows still stalled afterwards wait for the next topology
// transition.
func (s *Sim) scheduleReroute(delay sim.Time) {
	if s.rerouteScheduled {
		return
	}
	s.rerouteScheduled = true
	s.Eng.Schedule(delay, func() {
		s.rerouteScheduled = false
		s.reroutePass()
	})
}

// reroutePass re-paths every stalled flow with the now-converged view.
func (s *Sim) reroutePass() {
	s.beginMutate()
	defer s.endMutate()
	moved, still := s.repathStalled()
	s.ctrReroutes.Inc()
	s.instant("reroute",
		telemetry.Arg{K: "repathed", V: moved},
		telemetry.Arg{K: "still_stalled", V: still > 0})
	s.publish(Event{Kind: EvReroute, At: s.Eng.Now(), Count: int32(moved), StillStalled: int32(still)})
	// If flows are still stuck and the fabric is still reconverging (e.g. a
	// second failure landed during the pass), try once more afterwards.
	if still > 0 {
		s.retryReroute()
	}
}

// repathStalled re-routes every stalled flow, returning how many moved and
// how many remain stalled.
func (s *Sim) repathStalled() (moved, still int) {
	for _, f := range s.active {
		if !f.Stalled {
			continue
		}
		f.Stalled = false
		s.routeFlow(f, nil)
		if f.Stalled {
			still++
		} else {
			moved++
		}
	}
	return moved, still
}

// retryReroute schedules one more pass a convergence-delay out, without
// self-perpetuating: if that pass leaves flows stalled too, they wait for
// the next explicit topology transition.
func (s *Sim) retryReroute() {
	if s.rerouteScheduled {
		return
	}
	s.rerouteScheduled = true
	s.Eng.Schedule(s.R.ConvergenceDelay, func() {
		s.rerouteScheduled = false
		s.beginMutate()
		defer s.endMutate()
		moved, still := s.repathStalled()
		s.publish(Event{Kind: EvRerouteRetry, At: s.Eng.Now(), Count: int32(moved), StillStalled: int32(still)})
	})
}
