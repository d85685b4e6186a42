package collective

import (
	"fmt"

	"hpn/internal/netsim"
	"hpn/internal/route"
	"hpn/internal/sim"
)

// AllToAllResult extends Result with reachability accounting: on rail-only
// fabrics cross-rail shards have no path at all, which is exactly the
// limitation that made the paper reject a rail-only tier2 (§10).
type AllToAllResult struct {
	Result
	// FlowsSent / FlowsUnreachable partition the shard transfers.
	FlowsSent        int
	FlowsUnreachable int
}

// StartAllToAll begins an MoE-style all-to-all of `bytes` per GPU: every
// GPU scatters equal shards to every GPU of every other host, source and
// destination rails mixed (experts live on arbitrary ranks). Shard flows
// that have no fabric path (rail-only tier2) are counted unreachable and
// excluded from the completion barrier rather than deadlocking it.
func (g *Group) StartAllToAll(bytes float64, onDone func(sim.Time, AllToAllResult)) error {
	if bytes <= 0 {
		return fmt.Errorf("collective: non-positive size")
	}
	h := len(g.Hosts)
	if h < 2 {
		return fmt.Errorf("collective: all-to-all needs >=2 hosts")
	}
	started := g.Net.Eng.Now()
	res := &AllToAllResult{}
	res.Op = "alltoall"
	res.Bytes = bytes

	// Each source GPU (host, rail) owns `bytes`, split into n-1 remote
	// shards; shards to co-hosted GPUs ride NVLink and are not fabric
	// traffic. Destination NICs rotate over all rails.
	shard := bytes / float64(g.GPUs()-1)
	pending := 0
	finish := func(now sim.Time) {
		el := now - started
		res.Elapsed = el
		if el > 0 {
			res.AlgBW = bytes / el.Seconds()
			res.BusBW = res.AlgBW
		}
		if onDone != nil {
			onDone(now, *res)
		}
	}
	flowDone := func(now sim.Time, _ *netsim.Flow) {
		pending--
		if pending == 0 {
			finish(now)
		}
	}
	// Every shard starts at this instant: one rate recomputation for all.
	g.Net.Batch(func() {
		for si, srcHost := range g.Hosts {
			for sr := 0; sr < g.Rails; sr++ {
				for di, dstHost := range g.Hosts {
					if si == di {
						continue
					}
					// One aggregated flow per destination NIC; rotate the
					// destination rail so cross-rail pairs are exercised.
					dr := (sr + di) % g.Rails
					src := route.Endpoint{Host: srcHost, NIC: sr}
					dst := route.Endpoint{Host: dstHost, NIC: dr}
					f, err := g.Net.StartFlow(src, dst, shard*float64(g.Rails), netsim.FlowOpts{
						SrcPort:    -1,
						OnComplete: flowDone,
					})
					if err != nil || f.Stalled {
						res.FlowsUnreachable++
						if f != nil && f.Stalled {
							// A shard with no fabric path would never complete;
							// drop it rather than deadlock the barrier.
							g.Net.AbortFlow(f)
						}
						continue
					}
					res.FlowsSent++
					pending++
				}
			}
		}
	})
	if pending == 0 {
		finish(g.Net.Eng.Now())
		return nil
	}
	return nil
}

// AllToAll runs a blocking all-to-all and reports the result.
func (g *Group) AllToAll(bytes float64) (AllToAllResult, error) {
	var (
		out  AllToAllResult
		done bool
	)
	if err := g.StartAllToAll(bytes, func(_ sim.Time, r AllToAllResult) { out, done = r, true }); err != nil {
		return AllToAllResult{}, err
	}
	g.Net.Eng.RunWhile(func() bool { return !done })
	if !done {
		return AllToAllResult{}, fmt.Errorf("collective: all-to-all stalled")
	}
	return out, nil
}
