package collective

import (
	"fmt"

	"hpn/internal/sim"
	"hpn/internal/telemetry"
)

// StartAllReduce begins a hierarchical AllReduce of `bytes` across the
// group: NVLS intra-host reduce-scatter, per-rail inter-host ring AllReduce
// of the 1/8 shard, NVLS intra-host allgather. onDone fires when complete.
func (g *Group) StartAllReduce(bytes float64, onDone func(sim.Time, Result)) (*Op, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("collective: non-positive size")
	}
	h := float64(len(g.Hosts))
	intra := g.intraDelay(bytes, nvlinkReduceGBps)
	op := &Op{
		g: g, name: "allreduce", bytes: bytes,
		chunk: bytes / float64(g.Rails) / h,
		steps: 2 * (len(g.Hosts) - 1),
		rails: allRails(g.Rails),
		pre:   intra, post: intra,
		onDone: onDone,
	}
	op.start()
	return op, nil
}

// StartAllGather begins a hierarchical AllGather: per-rail inter-host ring
// gathering every host's shard, then an NVSwitch-bound intra-host exchange.
func (g *Group) StartAllGather(bytes float64, onDone func(sim.Time, Result)) (*Op, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("collective: non-positive size")
	}
	n := float64(g.GPUs())
	op := &Op{
		g: g, name: "allgather", bytes: bytes,
		chunk: bytes / n,
		steps: len(g.Hosts) - 1,
		rails: allRails(g.Rails),
		pre:   0, post: g.intraDelay(bytes, nvlinkGatherGBps),
		postOverlapsInter: true, // NCCL pipelines NVSwitch with the rings
		onDone:            onDone,
	}
	op.start()
	return op, nil
}

// StartMultiAllReduce begins the Megatron TP=8 gradient-sync pattern: GPUs
// with the same index run independent full-size ring AllReduces in
// parallel, all data crossing the inter-host network (no NVLink stage).
func (g *Group) StartMultiAllReduce(bytes float64, onDone func(sim.Time, Result)) (*Op, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("collective: non-positive size")
	}
	h := float64(len(g.Hosts))
	op := &Op{
		g: g, name: "multiallreduce", bytes: bytes,
		chunk:  bytes / h,
		steps:  2 * (len(g.Hosts) - 1),
		rails:  allRails(g.Rails),
		onDone: onDone,
	}
	op.start()
	return op, nil
}

// intraDelay is the analytic NVLink stage duration: each GPU moves 7/8 of
// the buffer across the NVSwitch at the given effective bandwidth.
func (g *Group) intraDelay(bytes, gbps float64) sim.Time {
	if g.Rails <= 1 {
		return 0
	}
	frac := float64(g.Rails-1) / float64(g.Rails)
	return sim.Time(bytes * frac / (gbps * 1e9) * float64(sim.Second))
}

func allRails(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// start schedules the op's first stage.
func (o *Op) start() {
	o.started = o.g.Net.Eng.Now()
	o.doneFn = o.flowDone
	if o.pre > 0 {
		o.g.Net.Eng.Schedule(o.pre, o.runStep)
		return
	}
	o.runStep()
}

// runStep launches one synchronous ring round: every host sends its chunk
// to its ring successor on every participating rail, split into
// ChunksPerMessage pieces dispatched per Algorithm 2 (or pinned round-robin
// under the single/blind baselines).
func (o *Op) runStep() {
	g := o.g
	now := g.Net.Eng.Now()
	if o.step > 0 {
		// A round just drained: its span is only known now, so it is
		// emitted retroactively with the recorded start.
		g.ctrRounds.Inc()
		if g.Net.Trace != nil {
			g.Net.Trace.Complete(int64(o.roundStart), int64(now-o.roundStart),
				"collective", "round", g.tid,
				telemetry.Arg{K: "op", V: o.name},
				telemetry.Arg{K: "step", V: o.step})
		}
	}
	if o.step >= o.steps {
		o.finish()
		return
	}
	o.step++
	o.roundStart = now
	nChunks := g.Cfg.ChunksPerMessage
	sub := o.chunk / float64(nChunks)
	// All of a round's flows start at the same instant, so batch the sends
	// into one rate recomputation instead of one per flow.
	g.Net.Batch(func() {
		for _, r := range o.rails {
			for i := range g.Hosts {
				cs := g.conns[r][i]
				for c := 0; c < nChunks; c++ {
					o.pending++
					var err error
					if g.Cfg.Policy == PolicyDisjoint || g.Cfg.Policy == PolicyBlind {
						_, err = cs.Send(sub, o.doneFn)
					} else {
						_, err = cs.SendOn(c, sub, o.doneFn)
					}
					if err != nil {
						// A fully unreachable peer stalls the collective, like
						// a real ring would; account the chunk as never
						// completing.
						o.pending--
					}
				}
			}
		}
	})
	if o.pending == 0 {
		// Nothing could be sent at all; finish defensively to avoid hangs.
		o.finish()
	}
}

func (o *Op) flowDone(now sim.Time) {
	o.pending--
	if o.pending == 0 {
		o.runStep()
	}
}

func (o *Op) finish() {
	g := o.g
	fire := func() {
		now := g.Net.Eng.Now()
		el := now - o.started
		g.ctrOps.Inc()
		if g.Net.Trace != nil {
			g.Net.Trace.Complete(int64(o.started), int64(el),
				"collective", o.name, g.tid,
				telemetry.Arg{K: "bytes", V: o.bytes},
				telemetry.Arg{K: "steps", V: o.steps})
		}
		res := Result{Op: o.name, Bytes: o.bytes, Elapsed: el}
		if el > 0 {
			res.AlgBW = o.bytes / el.Seconds()
			res.BusBW = res.AlgBW * o.busFactor()
		}
		if o.onDone != nil {
			o.onDone(now, res)
		}
	}
	if o.postOverlapsInter {
		// The intra-host stage ran concurrently with the rings; wait only
		// for whatever tail remains.
		end := o.started + o.post
		if now := g.Net.Eng.Now(); end > now {
			g.Net.Eng.Schedule(end-now, fire)
			return
		}
		fire()
		return
	}
	if o.post > 0 {
		g.Net.Eng.Schedule(o.post, fire)
		return
	}
	fire()
}

// AllReduce runs a blocking AllReduce: it drives the engine until the op
// completes and returns the result. Only valid when the caller owns the
// engine (no other pending work that must continue afterwards is lost —
// the engine keeps unrelated events queued).
func (g *Group) AllReduce(bytes float64) (Result, error) {
	return g.blocking(func(cb func(sim.Time, Result)) (*Op, error) {
		return g.StartAllReduce(bytes, cb)
	})
}

// AllGather runs a blocking AllGather.
func (g *Group) AllGather(bytes float64) (Result, error) {
	return g.blocking(func(cb func(sim.Time, Result)) (*Op, error) {
		return g.StartAllGather(bytes, cb)
	})
}

// MultiAllReduce runs a blocking Multi-AllReduce.
func (g *Group) MultiAllReduce(bytes float64) (Result, error) {
	return g.blocking(func(cb func(sim.Time, Result)) (*Op, error) {
		return g.StartMultiAllReduce(bytes, cb)
	})
}

func (g *Group) blocking(start func(func(sim.Time, Result)) (*Op, error)) (Result, error) {
	var (
		res  Result
		done bool
	)
	if _, err := start(func(_ sim.Time, r Result) { res, done = r, true }); err != nil {
		return Result{}, err
	}
	g.Net.Eng.RunWhile(func() bool { return !done })
	if !done {
		return Result{}, fmt.Errorf("collective: op stalled with no pending events (unrecovered failure?)")
	}
	return res, nil
}
