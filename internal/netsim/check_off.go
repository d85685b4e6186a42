//go:build !hpncheck

package netsim

import "hpn/internal/sim"

// checked reports whether pooled flows are checked (the hpncheck build tag;
// see check_on.go). In this build completed flows are recycled and the
// use-after-release check compiles to nothing.
const checked = false

// release returns a completed flow to the free list (completionEvent trims
// it to flowPoolCap once the fabric drains). The callbacks are dropped so
// their captures are collectable while the flow waits; its path and in-band
// buffers stay for the next StartFlow.
func (s *Sim) release(f *Flow) {
	f.OnComplete, f.After = nil, nil
	s.free = append(s.free, f)
}

// live is the use-after-release check; unchecked builds skip it.
func (f *Flow) live(op string) {}

// checkRouteHit and checkHandoff are the route checks; unchecked builds
// trust the route.
func (s *Sim) checkRouteHit(*Flow, sim.Time) {}
func (s *Sim) checkHandoff(*Flow)            {}

// checkComponents is the carried-component check; unchecked builds trust
// the dirty marks.
func (s *Sim) checkComponents() {}

// eventGuard is the hpncheck build's watch over the events handed to
// subscribers (see check_on.go); this build keeps nothing and checks
// nothing.
type eventGuard struct{}

func (s *Sim) enterDelivery()                {}
func (s *Sim) exitDelivery()                 {}
func (s *Sim) snapEvent(*Event)              {}
func (s *Sim) checkEvent(*Event, Subscriber) {}
