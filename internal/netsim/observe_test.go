package netsim

import (
	"math"
	"testing"

	"hpn/internal/inband"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

// incast runs two flows of size bytes from hosts 1 and 2 into host 0's
// NIC 0 with in-band telemetry on, so the delivery link carries twice its
// capacity in offered demand while both last (an unrelated flow started
// midway does not change that), and returns each flow's
// record of that hop, the link's capacity and its final queue. The link's
// utilisation, the two flows' rates summed, must be its capacity
// throughout.
func incast(t *testing.T, size float64) (recs []inband.Record, cap, queue float64, mid sim.Time) {
	t.Helper()
	eng, top, s := newSim(t, 1, 4, 4)
	c := s.EnableInband(0)
	down := top.Link(top.AccessLink(0, 0, 0)).Reverse
	_, q := s.WatchLink(down)
	probe := s.TrackLink(down)
	for src := 1; src <= 2; src++ {
		if _, err := s.StartFlow(route.Endpoint{Host: src, NIC: 0}, route.Endpoint{Host: 0, NIC: 0}, size,
			FlowOpts{SrcPort: 0, Sport: uint16(1000 + src)}); err != nil {
			t.Fatal(err)
		}
	}
	// A flow elsewhere, started midway, makes a recompute that carries the
	// incast's component: its flows must still offer their demand.
	mid = sim.Time(size * 8 / top.Link(down).CapBps * float64(sim.Second))
	eng.Schedule(mid, func() {
		if _, err := s.StartFlow(route.Endpoint{Host: 2, NIC: 5}, route.Endpoint{Host: 3, NIC: 5}, 1<<10, FlowOpts{SrcPort: 1}); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	for _, r := range c.Records() {
		if topo.LinkID(r.Link) == down {
			recs = append(recs, r)
		} else if r.QueueByteS != 0 {
			t.Errorf("hop %s holds %v B·s of queue; only the delivery link is oversubscribed", r.Name, r.QueueByteS)
		}
	}
	if len(recs) != 2 {
		t.Fatalf("%d records of the delivery link, want one per flow", len(recs))
	}
	cap = top.Link(down).CapBps
	if lo, hi := probe.Util.Min(), probe.Util.Max(); math.Abs(lo-cap) > cap*1e-9 || math.Abs(hi-cap) > cap*1e-9 {
		t.Errorf("delivery link carried %v to %v bps, want its capacity %v throughout", lo, hi, cap)
	}
	return recs, cap, q(), mid
}

// While two flows share a link, its queue grows at the excess of offered
// demand (each flow offers its access link's capacity) over capacity, and
// each flow's record of the hop holds the trapezoid of that queue over
// the flows' common lifetime.
func TestInbandQueueResidencyIsTrapezoid(t *testing.T) {
	recs, c, queue, _ := incast(t, 1<<20)
	for _, r := range recs {
		dt := float64(r.ExitNS-r.EnterNS) / 1e9
		q1 := (2*c - c) / 8 * dt
		if q1 >= portBufferBytes {
			t.Fatalf("queue reached %v B; the case must stay below the %v B buffer", q1, portBufferBytes)
		}
		if want := q1 / 2 * dt; math.Abs(r.QueueByteS-want) > want*1e-9 {
			t.Errorf("flow %d sat behind %v B·s of queue, want the trapezoid %v B·s", r.Flow, r.QueueByteS, want)
		}
		if math.Abs(queue-q1) > q1*1e-9 {
			t.Errorf("link queue ends at %v B, want %v B", queue, q1)
		}
	}
}

// A queue that would outgrow the port buffer stops at it, and residency
// integrates the clamped queue step by step.
func TestQueueClampsAtPortBuffer(t *testing.T) {
	recs, c, queue, mid := incast(t, 64<<20)
	if queue != portBufferBytes {
		t.Fatalf("link queue ends at %v B, want the %v B buffer", queue, portBufferBytes)
	}
	for _, r := range recs {
		dt := float64(r.ExitNS-r.EnterNS) / 1e9
		if (2*c-c)/8*dt <= portBufferBytes {
			t.Fatalf("the flows last %vs, too short to fill the buffer", dt)
		}
		// The midway flow splits the run into two steps, and residency is
		// each step's trapezoid of the clamped queue: from empty to the
		// buffer over the first, at the buffer over the second.
		t1 := mid.Seconds()
		if want := portBufferBytes/2*t1 + portBufferBytes*(dt-t1); math.Abs(r.QueueByteS-want) > want*1e-9 {
			t.Errorf("flow %d sat behind %v B·s of queue, want %v B·s", r.Flow, r.QueueByteS, want)
		}
	}
}
