// Pathselection: demonstrate Appendix B — establishing RDMA connections on
// RePaC-predicted disjoint paths (Algorithm 1) and dispatching messages on
// the least-loaded connection (Algorithm 2), including how the WQE counter
// routes around a congested path.
//
//	go run ./examples/pathselection
package main

import (
	"fmt"
	"log"
	"os"

	"hpn"
	"hpn/internal/hashing"
	"hpn/internal/netsim"
	"hpn/internal/rdma"
	"hpn/internal/route"
	"hpn/internal/sim"
)

func main() {
	// Record everything: the flow log below lands in the telemetry registry
	// as the "flowlog.tsv" artifact.
	hub := hpn.NewTelemetryHub(hpn.DefaultTelemetryOptions())
	cluster, err := hpn.NewHPN(hpn.SmallHPN(2, 8, 8))
	if err != nil {
		log.Fatal(err)
	}
	cluster.EnableTelemetry(hub)
	cluster.Net.EnableFlowLog()
	src := route.Endpoint{Host: 0, NIC: 0}
	dst := route.Endpoint{Host: 8, NIC: 0} // other segment, same rail

	// Algorithm 1: sweep source ports until 4 pairwise-disjoint fabric
	// paths are found (2 per plane under dual-plane).
	cs, err := rdma.EstablishConns(cluster.Net, src, dst, rdma.DefaultEstablishOpts())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("established %d connections after probing %d candidate paths (disjoint=%v)\n",
		len(cs.Conns), cs.Probes, cs.Disjoint())
	for i, c := range cs.Conns {
		fmt.Printf("  conn %d: plane %d, sport %d, fabric path %v\n", i, c.Route.Port, c.Route.Sport, c.Route.Path)
	}

	// Congest the first connection's ToR->Agg hop with background flows.
	victim := cs.Conns[0]
	hogLink := victim.Route.Path[1]
	placedHogs := 0
	for h := 1; h < 8 && placedHogs < 5; h++ {
		hogSrc := route.Endpoint{Host: h, NIC: 0}
		hogDst := route.Endpoint{Host: 8 + h, NIC: 0}
		for sport := uint16(30000); sport < 31000; sport++ {
			tuple := tupleOf(hogSrc, hogDst, sport)
			p, _, err := cluster.Net.R.Path(hogSrc, hogDst, int(victim.Route.Port), tuple, 0)
			if err != nil || p[1] != hogLink {
				continue
			}
			if _, err := cluster.Net.StartFlow(hogSrc, hogDst, 8<<30, netsim.FlowOpts{
				SrcPort: int(victim.Route.Port), Sport: sport,
			}); err == nil {
				placedHogs++
			}
			break
		}
	}
	fmt.Printf("\ncongested conn 0's path with %d background elephant flows\n", placedHogs)

	// Algorithm 2: stream messages in a closed loop (each completion posts
	// the next); the congested connection drains its work queue slower, so
	// the dispatcher starves it automatically.
	const messages = 64
	posted := 0
	var pump func(sim.Time)
	pump = func(sim.Time) {
		if posted >= messages {
			return
		}
		posted++
		if _, err := cs.Send(8<<20, pump); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // keep a window of 4 messages in flight
		pump(0)
	}
	cluster.Eng.Run()

	fmt.Println("\nbytes dispatched per connection (least-WQE balancing):")
	for i, c := range cs.Conns {
		marker := ""
		if i == 0 {
			marker = "   <- congested"
		}
		fmt.Printf("  conn %d: %6.1f MiB%s\n", i, c.SentBytes/(1<<20), marker)
	}

	// Dump the completed-flow log through the registry's exporter surface.
	out, err := os.Create("pathselection_flows.tsv")
	if err != nil {
		log.Fatal(err)
	}
	if err := hub.Registry.Export("flowlog.tsv", out); err != nil {
		log.Fatal(err)
	}
	if err := out.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote pathselection_flows.tsv (%d flows)\n", len(cluster.Net.FlowLog()))
}

func tupleOf(src, dst route.Endpoint, sport uint16) hashing.FiveTuple {
	return hashing.FiveTuple{
		SrcAddr: src.Addr(), DstAddr: dst.Addr(),
		SrcPort: sport, DstPort: 4791, Proto: 17,
	}
}
