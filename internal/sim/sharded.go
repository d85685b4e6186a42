// Sharded event loop: conservative time-window parallel simulation.
//
// The fabric model has no per-link propagation delay, so the classic
// conservative-PDES lookahead — "no shard can affect another sooner than
// the minimum cross-shard link latency" — degenerates to zero for
// arbitrary cross-shard traffic. What HPN's topology does guarantee is
// structural: pods only interact through the core tier (the plane-crossing
// points), so the simulation is partitioned hub-and-spoke. Each pod is a
// shard with its own Engine (heap + virtual clock); everything that spans
// pods — core links, cross-pod flows, the cross-pod phase of a collective
// — lives in one global domain whose engine only runs while every shard is
// quiescent. Windows are then derived, not configured: with zero
// cross-shard latency, shards simply run in parallel up to the next global
// event, and a direct shard-to-shard post is forbidden.
//
// Cross-domain interaction goes through per-sender mailboxes drained at
// window barriers in (sender domain ID, send sequence) order. This is the
// repo's exact-merge discipline for parallel work (hpnlint's goorder rule
// checks for it): each goroutine writes only its own index-addressed slot,
// and the merge walks the slots in index order. Worker count changes the
// goroutine schedule, never the merged order, so artifacts stay
// byte-identical between workers=1 and workers=N.
package sim

import (
	"fmt"
	"sync"

	"hpn/internal/prof"
)

// GlobalDomain is the domain ID of the hub: the engine that owns all
// cross-shard state and runs exclusively while shards are paused.
const GlobalDomain = 0

// post is one cross-domain message: run fn on the target domain's engine
// at virtual time at (clamped to the receiver's progress if the receiver's
// window already passed at — see Post).
type post struct {
	to int
	at Time
	fn func()
}

// Sharded coordinates one global engine plus K shard engines over
// conservative time windows. Construct with NewSharded; drive with Run.
type Sharded struct {
	engines []*Engine // index 0 = global domain, 1..K = shards
	workers int

	// outbox[d] collects domain d's outgoing posts during a window. Each
	// slice has exactly one writer — the goroutine executing domain d — and
	// is drained only at barriers, so no lock is needed and the merge order
	// is deterministic by construction (sender ID, then append order, which
	// is the sender's own event order).
	outbox [][]post

	// runnable is scratch for the per-window active-shard set.
	runnable []*Engine

	phWindow   *prof.Phase // sim/window_sync: one Begin/End per parallel window
	phExchange *prof.Phase // sim/mailbox_exchange: one Begin/End per barrier drain

	// Windows counts parallel shard windows executed; Exchanged counts
	// cross-domain posts delivered. Both are pure functions of the
	// simulated run (window edges depend only on event times), so they are
	// deterministic across worker counts.
	Windows   int
	Exchanged int
}

// NewSharded builds a coordinator over the given global engine and shard
// engines. Domain IDs are GlobalDomain (0) for global and 1..len(shards)
// for the shards, in slice order.
func NewSharded(global *Engine, shards []*Engine) *Sharded {
	if global == nil {
		panic("sim: sharded coordinator needs a global engine")
	}
	engines := make([]*Engine, 0, len(shards)+1)
	engines = append(engines, global)
	engines = append(engines, shards...)
	return &Sharded{
		engines: engines,
		workers: 1,
		outbox:  make([][]post, len(engines)),
	}
}

// SetWorkers sets how many goroutines execute shard windows; n <= 1 runs
// shards serially in domain order, which is the determinism baseline the
// golden tests compare against. Artifacts are byte-identical for every n.
func (s *Sharded) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.workers = n
}

// Workers returns the configured worker count.
func (s *Sharded) Workers() int { return s.workers }

// SetProfiler registers the coordinator's phases. Nil-safe.
func (s *Sharded) SetProfiler(p *prof.Profiler) {
	s.phWindow = p.Phase("sim/window_sync", "parallel shard windows executed (wall covers run+join of each window)")
	s.phExchange = p.Phase("sim/mailbox_exchange", "window-barrier mailbox drains (count via Add: posts delivered)")
}

// Post sends fn to domain `to`, to run at the sender's current time plus
// delay. It must be called from code executing on domain `from` (the
// sender's engine), which makes the append single-writer. Direct
// shard-to-shard posts are forbidden; posts to or from the global domain
// are safe because the global engine never runs concurrently with a
// shard — but their delivery still waits for the next barrier, so a
// delivery time inside the receiver's already-executed window is clamped
// forward to the receiver's clock (deterministically: window edges and
// shard progress do not depend on the worker count).
func (s *Sharded) Post(from int, delay Time, to int, fn func()) {
	if to < 0 || to >= len(s.engines) || from < 0 || from >= len(s.engines) {
		panic(fmt.Sprintf("sim: post from domain %d to domain %d out of range", from, to))
	}
	if delay < 0 {
		delay = 0
	}
	if from != GlobalDomain && to != GlobalDomain && from != to {
		panic(fmt.Sprintf(
			"sim: direct shard %d->%d post is forbidden; route it through the global domain", from, to))
	}
	s.outbox[from] = append(s.outbox[from], post{to: to, at: s.engines[from].Now() + delay, fn: fn})
}

// exchange drains every outbox in (sender domain ID, send order) order,
// scheduling each post on its target engine as a foreground event. The
// delivery time is clamped to the receiver's clock: the receiver may have
// executed past the nominal time inside the same window, and scheduling in
// its past would reorder causality. Returns the number of posts delivered.
func (s *Sharded) exchange() int {
	delivered := 0
	tk := s.phExchange.Begin()
	for from := range s.outbox {
		box := s.outbox[from]
		if len(box) == 0 {
			continue
		}
		for i := range box {
			p := box[i]
			target := s.engines[p.to]
			at := p.at
			if now := target.Now(); at < now {
				at = now
			}
			target.ScheduleAt(at, p.fn)
			box[i] = post{}
		}
		s.outbox[from] = box[:0]
		delivered += len(box)
	}
	s.phExchange.End(tk)
	s.phExchange.Add(int64(delivered))
	s.Exchanged += delivered
	return delivered
}

// nextFire returns the time of the next event that will actually fire on
// e: with no foreground work an engine fires nothing (daemons alone never
// run), so only engines with PendingWork contribute to window edges.
func nextFire(e *Engine) (Time, bool) {
	if e.PendingWork() == 0 {
		return 0, false
	}
	return e.NextAt()
}

// Run advances all domains in lockstep until no domain has foreground
// work and no posts are in flight. Each round either (a) runs the global
// domain exclusively up to the earliest shard event — shards are quiescent,
// so cross-shard state is owned by exactly one goroutine — or (b) runs
// every shard with work in parallel through the window ending at the next
// global event. Ties go to the global domain. The artifact streams
// produced are identical for every worker count: window edges depend only
// on event times, and mailbox merges are ordered by (sender, send seq),
// never by goroutine scheduling.
func (s *Sharded) Run() {
	for {
		s.exchange()
		gNext, gHas := nextFire(s.engines[GlobalDomain])
		minShard, sHas := MaxTime, false
		for _, sh := range s.engines[1:] {
			if t, ok := nextFire(sh); ok && t < minShard {
				minShard, sHas = t, true
			}
		}
		switch {
		case !gHas && !sHas:
			return
		case gHas && (!sHas || gNext <= minShard):
			cap := minShard
			if !sHas {
				cap = MaxTime
			}
			s.engines[GlobalDomain].RunCapped(cap)
		default:
			w := gNext
			if !gHas {
				w = MaxTime
			}
			s.window(w)
		}
	}
}

// window executes one conservative window: every shard with a fireable
// event at or before w runs RunCapped(w), serially in domain order under
// workers=1 or fanned out over the worker pool otherwise. Shards touch
// disjoint engines and (by the hub-and-spoke contract) disjoint simulator
// state, so the only synchronization is the join; results are not merged
// here at all — cross-domain effects travel exclusively through the
// mailboxes drained by exchange.
func (s *Sharded) window(w Time) {
	tk := s.phWindow.Begin()
	runnable := s.runnable[:0]
	for _, sh := range s.engines[1:] {
		if t, ok := nextFire(sh); ok && t <= w {
			runnable = append(runnable, sh)
		}
	}
	s.runnable = runnable[:0] // keep the backing array
	if s.workers <= 1 || len(runnable) <= 1 {
		for _, sh := range runnable {
			sh.RunCapped(w)
		}
	} else {
		n := s.workers
		if n > len(runnable) {
			n = len(runnable)
		}
		var wg sync.WaitGroup
		wg.Add(n)
		for j := 0; j < n; j++ {
			go func(j int) {
				defer wg.Done()
				for k := j; k < len(runnable); k += n {
					runnable[k].RunCapped(w)
				}
			}(j)
		}
		wg.Wait()
	}
	s.Windows++
	s.phWindow.End(tk)
}
