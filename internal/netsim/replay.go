package netsim

import (
	"math"

	"hpn/internal/metrics"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

// This file is netsim's side of iteration memoization (internal/memo): the
// mixer every memo fingerprint is built with, the state fingerprint a
// recorder keys cached windows on, and a window's position and exit state.
// A recorder takes a Mark when a window opens, turns it into an Exit when
// the window closes, and on a later fingerprint hit re-stamps its captured
// events by ShiftFrom and lands the whole exit with one ApplyExit. The
// recorder captures the fabric event stream itself and hands each half of
// a window back to Sim.Redeliver; an Exit holds the engine and fluid-model
// state the stream does not carry.

// Hasher is the FNV-1a style mixer every memo fingerprint is built with.
// Callers fold their own state in with Mix and combine sub-fingerprints
// (the workload's schedule hash, StateHash64) the same way.
type Hasher struct{ h uint64 }

// NewHasher returns a hasher at the FNV-1a offset basis.
func NewHasher() *Hasher { return &Hasher{h: 14695981039346656037} }

// Mix folds one word into the hash.
func (h *Hasher) Mix(v uint64) {
	h.h ^= v
	h.h *= 1099511628211
}

// Sum returns the current hash value.
func (h *Hasher) Sum() uint64 { return h.h }

// StateHash64 folds the simulator state that must match for a recorded
// window to replay correctly into one Hasher value: per-link usability,
// the transport-sport cursor, the active-flow multiset (in deterministic
// insertion order), the observed links' residual queue state, and the
// gap back to the last fluid integration. Anything that drifts run to run
// (flow IDs, completed counts) is deliberately excluded — drift there is
// reproduced by the replay shift, not matched by the fingerprint.
func (s *Sim) StateHash64() uint64 {
	h := NewHasher()
	if s.sharding != nil {
		// Shard-scoped fingerprint: only this shard's links. Reading other
		// shards' usability here would both race with their concurrent
		// windows and invalidate this shard's cached windows on transitions
		// that cannot affect its flows.
		for _, l := range s.sharding.ShardLinks[s.shard-1] {
			h.Mix(uint64(l)<<1 | b2u(s.Top.LinkUsable(l)))
		}
	} else {
		for i := range s.Top.Links {
			h.Mix(uint64(i)<<1 | b2u(s.Top.LinkUsable(topo.LinkID(i))))
		}
	}
	h.Mix(uint64(s.sport))
	h.Mix(uint64(s.Eng.Now() - s.lastAdvance))
	h.Mix(uint64(len(s.active)))
	for _, f := range s.active {
		h.Mix(f.Tuple.Word())
		h.Mix(math.Float64bits(f.Bits))
		h.Mix(math.Float64bits(f.Remaining))
		h.Mix(uint64(f.Port)<<1 | b2u(f.Stalled))
	}
	if s.obs != nil {
		h.Mix(uint64(len(s.obsLive)))
		for _, lk := range s.obsLive {
			o := &s.obs[lk]
			h.Mix(uint64(lk))
			h.Mix(math.Float64bits(o.queue))
			h.Mix(math.Float64bits(o.demand))
			h.Mix(math.Float64bits(o.cap))
		}
	}
	return h.Sum()
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// position is the run state a window advances: the clock, the engine's
// sequence and dispatch cursors, the flow-ID cursor and the completed-flow
// tallies.
type position struct {
	at              sim.Time
	seq, proc       uint64
	id, flows       int64
	bits, agg, core metrics.ExactSum
}

func (s *Sim) position() position {
	return position{
		at: s.Eng.Now(), seq: s.Eng.Seq(), proc: s.Eng.Processed, id: s.nextID,
		flows: s.CompletedFlows, bits: s.CompletedBits, agg: s.AggBits, core: s.CoreBits,
	}
}

// since returns how far p lies past base.
func (p position) since(base position) position {
	return position{
		at: p.at - base.at, seq: p.seq - base.seq, proc: p.proc - base.proc,
		id: p.id - base.id, flows: p.flows - base.flows,
		bits: p.bits.Minus(base.bits), agg: p.agg.Minus(base.agg), core: p.core.Minus(base.core),
	}
}

// Mark is a Sim's position at the start of a recorded window, plus what
// ExitFrom checks the window's end against: the transport-sport cursor
// and the engine's pending-event population.
type Mark struct {
	pos     position
	sport   uint16
	pending int
	nextAt  sim.Time
	nextOK  bool
}

// Mark returns the current position as a window start. It refuses
// (ok=false) while flows are active, since a window must start from a
// drained fabric to be replayable, and while a LinkProbe is attached,
// since replay appends no probe samples. Every other observer reads the
// observed links' state, which ApplyExit restores.
func (s *Sim) Mark() (m Mark, ok bool) {
	if len(s.active) != 0 || len(s.probeList) != 0 {
		return Mark{}, false
	}
	nextAt, nextOK := s.Eng.NextAt()
	return Mark{pos: s.position(), sport: s.sport, pending: s.Eng.Pending(),
		nextAt: nextAt, nextOK: nextOK}, true
}

// Exit is a recorded window's effect on the Sim, held as deltas from the
// window's start so ApplyExit can land it at any later drained instant:
// replay happens at a later clock and flow-ID cursor, and each sharded
// pod's Sim has its own flow-ID base.
type Exit struct {
	// base is the window's start at record time, the origin ShiftFrom
	// measures replay re-stamps from; delta is how far the window moved it.
	base, delta position
	// lastAdv is the integration cursor's offset from the window start.
	lastAdv sim.Time
	// metrics is the window's registry movement, a difference of two
	// telemetry.Registry Values vectors.
	metrics  []uint64
	residual []linkResidual
}

// linkResidual is one live observed link's drain state at a window's end.
// Offered demand and utilisation are left out: with no flow active, the
// last recompute set them to zero on every link, at both ends of any
// window Fits accepts. So is the per-step queue integral (qstep):
// integrateObserved rewrites it for every live link before anything reads
// it.
type linkResidual struct {
	lk         topo.LinkID
	queue, cap float64
}

// ExitFrom closes the window opened at m and returns its exit state, with
// metrics as the registry movement a replay re-applies. It returns nil when
// replay could not reproduce the window: the sport cursor moved
// (auto-assigned ports are not periodic), flows are still active, or the
// engine's pending-event population changed over the window — the
// signature of a timer armed mid-window or an external (failure-injection)
// event firing inside it.
func (s *Sim) ExitFrom(m Mark, metrics []uint64) *Exit {
	now := s.Eng.Now()
	if s.sport != m.sport || len(s.active) != 0 || s.Eng.Pending() != m.pending ||
		(m.nextOK && m.nextAt < now) {
		return nil
	}
	x := &Exit{
		base:    m.pos,
		delta:   s.position().since(m.pos),
		lastAdv: s.lastAdvance - m.pos.at,
		metrics: metrics,
	}
	if s.obs != nil {
		x.residual = make([]linkResidual, len(s.obsLive))
		for i, lk := range s.obsLive {
			x.residual[i] = linkResidual{lk: lk, queue: s.obs[lk].queue, cap: s.obs[lk].cap}
		}
	}
	return x
}

// Fits reports whether x can replay at the current instant: no flows are
// active, no LinkProbe is attached (as for Mark), and no pending event
// lands inside (or exactly at the end of) the would-be window, since
// replay cannot interleave it.
func (s *Sim) Fits(x *Exit) bool {
	if len(s.active) != 0 || len(s.probeList) != 0 {
		return false
	}
	at, ok := s.Eng.NextAt()
	return !ok || at > s.Eng.Now()+x.delta.at
}

// Shift is how far a replay instant lies past a recorded window's start:
// the re-stamp every captured timestamp, flow ID and engine sequence
// number of the window needs.
type Shift struct {
	T   sim.Time
	ID  int64
	Seq uint64
}

// restamp moves a recorded event by sh: every timestamp it carries by sh.T
// and its flow's ID by sh.ID. Fields the event's kind leaves zero stay
// zero; durations (Slowest) and per-hop values carry over verbatim.
func (sh Shift) restamp(e *Event) {
	e.At += sh.T
	if e.Kind&(EvFlowRouted|EvFlowDone|EvPathFlush) != 0 {
		e.Flow.ID += sh.ID
		e.Flow.StartedAt += sh.T
	}
	if e.Kind == EvPathFlush {
		e.Since += sh.T
	}
}

// ShiftFrom returns the re-stamp from x's recorded start to now.
func (s *Sim) ShiftFrom(x *Exit) Shift {
	return Shift{T: s.Eng.Now() - x.base.at, ID: s.nextID - x.base.id, Seq: s.Eng.Seq() - x.base.seq}
}

// ApplyExit lands a replayed window's exit state at the current instant,
// once its events have been re-delivered: the engine fast-forwards past the
// window crediting its sequence numbers and dispatches, and the flow-ID
// cursor, completed-flow tallies, registry counters, the observed links'
// drain state and the integration cursor land where a re-simulated window
// would have left them. It allocates nothing.
func (s *Sim) ApplyExit(x *Exit) {
	t0 := s.Eng.Now()
	d := &x.delta
	s.Eng.FastForward(t0+d.at, d.seq, d.proc)
	s.nextID += d.id
	s.CompletedFlows += d.flows
	s.CompletedBits = s.CompletedBits.Plus(d.bits)
	s.AggBits = s.AggBits.Plus(d.agg)
	s.CoreBits = s.CoreBits.Plus(d.core)
	s.Reg.AddValues(x.metrics)
	if s.obs != nil {
		for _, lk := range s.obsLive {
			o := &s.obs[lk]
			o.live, o.queue, o.cap = false, 0, 0
		}
		s.obsLive = s.obsLive[:0]
		for _, r := range x.residual {
			s.obsLive = append(s.obsLive, r.lk)
			o := &s.obs[r.lk]
			o.live, o.queue, o.cap = true, r.queue, r.cap
		}
	}
	s.lastAdvance = t0 + x.lastAdv
}
