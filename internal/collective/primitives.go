package collective

import (
	"fmt"

	"hpn/internal/sim"
)

// StartReduceScatter begins a rail-aligned ReduceScatter of `bytes`: an
// NVLS intra-host reduce-scatter, then a per-rail inter-host
// reduce-scatter ring (H-1 steps) leaving each GPU with its reduced shard.
func (g *Group) StartReduceScatter(bytes float64, onDone func(sim.Time, Result)) (*Op, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("collective: non-positive size")
	}
	h := float64(len(g.Hosts))
	op := &Op{
		g: g, name: "reducescatter", bytes: bytes,
		chunk:  bytes / float64(g.Rails) / h,
		steps:  len(g.Hosts) - 1,
		rails:  allRails(g.Rails),
		pre:    g.intraDelay(bytes, nvlinkReduceGBps),
		onDone: onDone,
	}
	op.start()
	return op, nil
}

// StartBroadcast begins a broadcast of `bytes` from the first host of the
// group: a per-rail pipeline ring forwards the buffer hop by hop (H-1
// steps of the full 1/8 rail shard), then NVLink fans it out inside each
// host.
func (g *Group) StartBroadcast(bytes float64, onDone func(sim.Time, Result)) (*Op, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("collective: non-positive size")
	}
	op := &Op{
		g: g, name: "broadcast", bytes: bytes,
		chunk:             bytes / float64(g.Rails),
		steps:             len(g.Hosts) - 1,
		rails:             allRails(g.Rails),
		post:              g.intraDelay(bytes, nvlinkGatherGBps),
		postOverlapsInter: true,
		onDone:            onDone,
	}
	op.start()
	return op, nil
}

// ReduceScatter runs a blocking ReduceScatter.
func (g *Group) ReduceScatter(bytes float64) (Result, error) {
	return g.blocking(func(cb func(sim.Time, Result)) (*Op, error) {
		return g.StartReduceScatter(bytes, cb)
	})
}

// Broadcast runs a blocking Broadcast.
func (g *Group) Broadcast(bytes float64) (Result, error) {
	return g.blocking(func(cb func(sim.Time, Result)) (*Op, error) {
		return g.StartBroadcast(bytes, cb)
	})
}
