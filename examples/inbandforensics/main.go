// Inbandforensics: produce an in-band telemetry artifact dense enough for
// hash forensics, then let cmd/hpnview pass judgment on it.
//
// Ring collectives establish each connection once and reuse its 5-tuple for
// every send, so a training run — however long — contributes only a handful
// of distinct hash inputs per ECMP stage pair; the polarization detector
// correctly answers "too few samples" rather than guessing. This example
// drives what the detector actually needs: a cross-segment sweep of many
// flows with distinct source ports (the traffic shape of a multi-job
// production fabric), under a chosen tier-2 design and hash seeding.
//
//	go run ./examples/inbandforensics -mode polarized -out /tmp/fx
//	go run ./cmd/hpnview -in /tmp/fx/inband.tsv        # exits 3: POLARIZED
//
//	go run ./examples/inbandforensics -mode seeded -out /tmp/fx2
//	go run ./cmd/hpnview -in /tmp/fx2/inband.tsv       # exits 0: ok
//
// Modes: polarized (legacy Clos, one shared hash seed everywhere — §2.2),
// seeded (same Clos topology, per-switch seeds), dualplane (HPN's design).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"hpn"
	"hpn/internal/netsim"
	"hpn/internal/route"
)

func main() {
	var (
		mode = flag.String("mode", "polarized", "polarized | seeded | dualplane")
		out  = flag.String("out", "forensics-run", "directory for the inband.tsv artifact")
	)
	flag.Parse()

	cfg := hpn.SmallHPN(2, 8, 8)
	switch *mode {
	case "polarized":
		cfg.DualPlane = false
		cfg.SharedHashSeed = true
	case "seeded":
		cfg.DualPlane = false
	case "dualplane":
		// the default config
	default:
		fmt.Fprintf(os.Stderr, "inbandforensics: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	cluster, err := hpn.NewHPN(cfg)
	if err != nil {
		log.Fatal(err)
	}
	col := cluster.Net.EnableInband(0)

	// Every segment-0 host sends to its segment-1 peer on two rails, 32
	// distinct source ports each: 512 flows, every one a fresh hash input,
	// all crossing the ToR->Agg->ToR ECMP cascade. They start at one
	// instant, so a single batch computes their rates once.
	flows, sport := 0, uint16(20000)
	cluster.Net.Batch(func() {
		for h := 0; h < 8; h++ {
			for nic := 0; nic < 2; nic++ {
				for k := 0; k < 32; k++ {
					sport++
					src := route.Endpoint{Host: h, NIC: nic}
					dst := route.Endpoint{Host: h + 8, NIC: nic}
					if _, err := cluster.Net.StartFlow(src, dst, 256<<10, netsim.FlowOpts{SrcPort: -1, Sport: sport}); err != nil {
						log.Fatal(err)
					}
					flows++
				}
			}
		}
	})
	cluster.Eng.Run()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(*out, "inband.tsv")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := col.WriteTSV(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mode=%s: %d flows swept, %d per-hop records -> %s\n", *mode, flows, len(col.Records()), path)
	fmt.Printf("analyze with: go run ./cmd/hpnview -in %s\n", path)
}
