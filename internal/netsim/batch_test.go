package netsim

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

// batchFlow is one flow of a randomized same-instant launch.
type batchFlow struct {
	src, dst route.Endpoint
	bytes    float64
}

// launch starts flows on s at the current instant, aborting flows[abort]
// right after its start, either inside one Batch or one call at a time.
func launch(t *testing.T, s *Sim, flows []batchFlow, abort int, batched bool) {
	t.Helper()
	run := func() {
		for i, bf := range flows {
			f, err := s.StartFlow(bf.src, bf.dst, bf.bytes, FlowOpts{SrcPort: -1})
			if err != nil {
				t.Fatal(err)
			}
			if i == abort {
				s.AbortFlow(f)
			}
		}
	}
	if batched {
		s.Batch(run)
	} else {
		run()
	}
}

// armedAt returns when s's completion event fires, or -1 if none is armed.
func armedAt(s *Sim) sim.Time {
	if s.completionEv == nil {
		return -1
	}
	return s.completionEv.At()
}

// TestBatchMatchesUnbatched pins Batch's contract: starting a flow set
// inside one Batch leaves every flow's rate and the armed completion time
// bit-identical to starting the same flows one StartFlow at a time, and
// the runs that follow write byte-identical flow logs. Each trial kills
// both access links of one NIC, so flows from it stall until a later
// repair, and aborts one flow inside the launch.
func TestBatchMatchesUnbatched(t *testing.T) {
	rng := rand.New(rand.NewSource(0xba7c4))
	stalled := 0
	for trial := 0; trial < 20; trial++ {
		top, err := topo.BuildHPN(topo.SmallHPN(2, 6, 4))
		if err != nil {
			t.Fatal(err)
		}
		const nHosts = 12
		deadHost, deadNIC := rng.Intn(nHosts), rng.Intn(8)
		flows := make([]batchFlow, 10+rng.Intn(60))
		for i := range flows {
			src, dst := rng.Intn(nHosts), rng.Intn(nHosts)
			if src == dst {
				dst = (dst + 1) % nHosts
			}
			nic := rng.Intn(8)
			if i%7 == 0 {
				src, nic = deadHost, deadNIC
				if dst == src {
					dst = (dst + 1) % nHosts
				}
			}
			flows[i] = batchFlow{
				src:   route.Endpoint{Host: src, NIC: nic},
				dst:   route.Endpoint{Host: dst, NIC: nic},
				bytes: float64(1+rng.Intn(64)) * (1 << 20),
			}
		}
		abort := rng.Intn(len(flows))

		var sims [2]*Sim
		for i := range sims {
			s := New(sim.New(), top)
			s.EnableFlowLog()
			dead := []topo.LinkID{top.AccessLink(deadHost, deadNIC, 0), top.AccessLink(deadHost, deadNIC, 1)}
			for _, l := range dead {
				s.FailCable(l)
			}
			// Start the flows past the failure's instant, then repair.
			s.Eng.RunUntil(sim.Millisecond)
			launch(t, s, flows, abort, i == 0)
			s.Eng.Schedule(5*sim.Millisecond, func() {
				for _, l := range dead {
					s.RecoverCable(l)
				}
			})
			sims[i] = s
		}
		batched, serial := sims[0], sims[1]

		if len(batched.active) != len(serial.active) {
			t.Fatalf("trial %d: %d active flows batched, %d unbatched", trial, len(batched.active), len(serial.active))
		}
		for i, f := range batched.active {
			g := serial.active[i]
			if f.ID != g.ID || f.Stalled != g.Stalled {
				t.Fatalf("trial %d: active flow %d is %d (stalled %v) batched, %d (stalled %v) unbatched",
					trial, i, f.ID, f.Stalled, g.ID, g.Stalled)
			}
			if math.Float64bits(f.Rate) != math.Float64bits(g.Rate) {
				t.Fatalf("trial %d: flow %d rate %v batched, %v unbatched", trial, f.ID, f.Rate, g.Rate)
			}
			if f.Stalled {
				stalled++
			}
		}
		if a, b := armedAt(batched), armedAt(serial); a != b {
			t.Fatalf("trial %d: completion armed at %v batched, %v unbatched", trial, a, b)
		}

		var logs [2]bytes.Buffer
		for i, s := range sims {
			s.Eng.Run()
			if s.ActiveFlows() != 0 {
				t.Fatalf("trial %d: %d flows never finished", trial, s.ActiveFlows())
			}
			if err := s.WriteFlowLog(&logs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(batched.FlowLog()); n != len(flows)-1 {
			t.Fatalf("trial %d: %d flows logged, want %d", trial, n, len(flows)-1)
		}
		if !bytes.Equal(logs[0].Bytes(), logs[1].Bytes()) {
			t.Fatalf("trial %d: flow logs differ\nbatched:\n%s\nunbatched:\n%s", trial, logs[0].String(), logs[1].String())
		}
	}
	if stalled == 0 {
		t.Fatal("no flow ever stalled; the failed-link case went unexercised")
	}
}
