package netsim

import (
	"math"

	"hpn/internal/sim"
	"hpn/internal/topo"
)

// This file is netsim's side of iteration memoization (internal/memo): the
// state fingerprint a recorder keys cached windows on, and the mutators it
// uses to apply a recorded window's effects without re-simulating it. The
// recorder captures and re-stamps the fabric event stream itself (see
// Sim.ReplayEvent); everything here either exposes private state read-only
// or overwrites the fluid model's exit state.

// StateHash64 folds the simulator state that must match for a recorded
// window to replay correctly into an FNV-1a style 64-bit hash: per-link
// usability, the transport-sport cursor, the active-flow multiset (in
// deterministic insertion order), the in-band residual queue state, and
// the gap back to the last fluid integration. Anything that drifts run to
// run (flow IDs, completed counts) is deliberately excluded — drift there
// is reproduced by the replay shift, not matched by the fingerprint.
func (s *Sim) StateHash64() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	if s.sharding != nil {
		// Shard-scoped fingerprint: only this shard's links. Reading other
		// shards' usability here would both race with their concurrent
		// windows and invalidate this shard's cached windows on transitions
		// that cannot affect its flows.
		for _, l := range s.sharding.ShardLinks[s.shard-1] {
			b := uint64(0)
			if s.Top.LinkUsable(l) {
				b = 1
			}
			mix(uint64(l)<<1 | b)
		}
	} else {
		for i := range s.Top.Links {
			b := uint64(0)
			if s.Top.LinkUsable(topo.LinkID(i)) {
				b = 1
			}
			mix(uint64(i)<<1 | b)
		}
	}
	mix(uint64(s.sport))
	mix(uint64(s.Eng.Now() - s.lastAdvance))
	mix(uint64(len(s.active)))
	for _, f := range s.active {
		mix(f.Tuple.Word())
		mix(math.Float64bits(f.Bits))
		mix(math.Float64bits(f.Remaining))
		b := uint64(0)
		if f.Stalled {
			b = 1
		}
		mix(uint64(f.Port)<<1 | b)
	}
	if s.inband != nil {
		mix(uint64(len(s.ibLive)))
		for _, lk := range s.ibLive {
			mix(uint64(lk))
			mix(math.Float64bits(s.ibQueue[lk]))
			mix(math.Float64bits(s.ibDemand[lk]))
			mix(math.Float64bits(s.ibCap[lk]))
		}
	}
	return h
}

// NextFlowID returns the ID the next started flow would get.
func (s *Sim) NextFlowID() int64 { return s.nextID }

// AdvanceFlowIDs skips n flow IDs, as if n flows had been started. The
// memo replay path calls this after replaying a window's events so live
// flows started after it get the same IDs a re-simulated run would assign.
func (s *Sim) AdvanceFlowIDs(n int64) { s.nextID += n }

// SportCursor returns the auto-assign transport source-port cursor. A
// recorded window is only replayable if the cursor did not move while it
// was recorded (auto-assigned sports are not periodic).
func (s *Sim) SportCursor() uint16 { return s.sport }

// LastAdvance returns the virtual time of the last fluid integration.
func (s *Sim) LastAdvance() sim.Time { return s.lastAdvance }

// RestoreLastAdvance rewinds the integration cursor to t (<= now). Only
// the memo replay path calls this, to re-create the partial-interval state
// a re-simulated window would have left behind.
func (s *Sim) RestoreLastAdvance(t sim.Time) { s.lastAdvance = t }

// AddReplayedStats credits a recorded window's completed-flow tallies.
func (s *Sim) AddReplayedStats(flows int64, bits, aggBits, coreBits float64) {
	s.CompletedFlows += flows
	s.CompletedBits += bits
	s.AggBits += aggBits
	s.CoreBits += coreBits
}

// InbandResidual is the drain state of the in-band queue model at a window
// boundary: the live-link worklist and its per-link queue, demand and
// capacity snapshots. Links is sorted by worklist order (deterministic).
type InbandResidual struct {
	Links  []topo.LinkID
	Queue  []float64
	QStep  []float64
	Demand []float64
	Cap    []float64
}

// CaptureInbandResidual snapshots the current in-band drain state (nil
// while in-band telemetry is off).
func (s *Sim) CaptureInbandResidual() *InbandResidual {
	if s.inband == nil {
		return nil
	}
	r := &InbandResidual{
		Links:  append([]topo.LinkID(nil), s.ibLive...),
		Queue:  make([]float64, len(s.ibLive)),
		QStep:  make([]float64, len(s.ibLive)),
		Demand: make([]float64, len(s.ibLive)),
		Cap:    make([]float64, len(s.ibLive)),
	}
	for i, lk := range s.ibLive {
		r.Queue[i] = s.ibQueue[lk]
		r.QStep[i] = s.ibQStep[lk]
		r.Demand[i] = s.ibDemand[lk]
		r.Cap[i] = s.ibCap[lk]
	}
	return r
}

// RestoreInbandResidual overwrites the in-band drain state with a captured
// snapshot: the replay path installs the recorded window's exit state so
// the next live integration starts exactly where a re-simulated run would.
func (s *Sim) RestoreInbandResidual(r *InbandResidual) {
	if s.inband == nil {
		return
	}
	for _, lk := range s.ibLive {
		s.ibLiveSet[lk] = false
		s.ibQueue[lk] = 0
		s.ibQStep[lk] = 0
		s.ibDemand[lk] = 0
		s.ibCap[lk] = 0
	}
	s.ibLive = s.ibLive[:0]
	if r == nil {
		return
	}
	for i, lk := range r.Links {
		s.ibLive = append(s.ibLive, lk)
		s.ibLiveSet[lk] = true
		s.ibQueue[lk] = r.Queue[i]
		s.ibQStep[lk] = r.QStep[i]
		s.ibDemand[lk] = r.Demand[i]
		s.ibCap[lk] = r.Cap[i]
	}
}
