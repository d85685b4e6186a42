// Package rdma models the host networking stack HPN's path selection lives
// in: RDMA connections (queue pairs) with fixed 5-tuples, Work Queue Element
// (WQE) byte counters, and the two algorithms of Appendix B:
//
//   - EstablishConns (Algorithm 1): for a new peer, sweep transport source
//     ports — whose ECMP outcome the host can predict exactly thanks to
//     RePaC-style hash visibility — and keep those that yield pairwise
//     disjoint fabric paths.
//   - PathSelection (Algorithm 2): dispatch each message on the connection
//     with the fewest outstanding WQE bytes; a congested connection drains
//     its queue slower, so the counter doubles as a congestion signal.
//
// Because the transport is hardware-offloaded (commodity RoCE), nothing here
// touches the transport layer itself: both algorithms operate strictly above
// it, exactly as the paper requires for deployability.
package rdma

import (
	"fmt"

	"hpn/internal/hashing"
	"hpn/internal/netsim"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

// Conn is one RDMA connection: a queue pair bound to a 5-tuple. The two
// physical NIC ports share QP context, so a bond failover moves the
// connection between planes without breaking it (§4: "transparent to
// upper-layer applications").
type Conn struct {
	Src, Dst route.Endpoint
	// Route holds the transport source port EstablishConns chose to pin
	// the ECMP path (Route.Sport), the NIC port the connection was
	// established on (Route.Port, its plane) and the path predicted then
	// (Route.Path, for disjointness accounting; failures may move the live
	// path). Every message is posted with it, so it is also the
	// connection's route cache: while the fabric still yields that path, a
	// flow copies it instead of walking (netsim.Route).
	Route netsim.Route

	// wqeBytes counts the bytes of active (posted, incomplete) WQEs.
	wqeBytes float64
	// SentBytes is the lifetime total dispatched on this connection.
	SentBytes float64

	// doneFn is the connection's persistent flow-completion handler (WQE
	// retirement), bound lazily on first Send so posting a message costs no
	// closure allocation; the caller's callback rides in Flow.After.
	doneFn func(now sim.Time, f *netsim.Flow)
}

// flowDone retires a completed flow's WQE bytes.
func (c *Conn) flowDone(_ sim.Time, f *netsim.Flow) {
	c.wqeBytes -= f.Bits / 8
	if c.wqeBytes < 0 {
		c.wqeBytes = 0
	}
}

// ConnSet is the group of disjoint-path connections to one peer.
type ConnSet struct {
	Net   *netsim.Sim
	Conns []*Conn
	// Probes is the number of candidate paths examined while establishing
	// the set — the realized "path selection complexity" of Table 1.
	Probes int
}

// EstablishOpts tunes Algorithm 1.
type EstablishOpts struct {
	// Conns is the number of connections wanted (spread across planes).
	Conns int
	// MaxSweep bounds the source-port sweep per connection.
	MaxSweep int
	// SportBase is the first source port probed.
	SportBase uint16
}

// DefaultEstablishOpts asks for 4 connections (2 per plane under
// dual-plane).
func DefaultEstablishOpts() EstablishOpts {
	return EstablishOpts{Conns: 4, MaxSweep: 256, SportBase: 49152}
}

// EstablishConns is Algorithm 1: findPaths + Connect for each disjoint
// path. Paths are "disjoint" when they share no fabric link; the two access
// links per plane are shared by construction and excluded from the check.
func EstablishConns(net *netsim.Sim, src, dst route.Endpoint, opt EstablishOpts) (*ConnSet, error) {
	if opt.Conns <= 0 {
		return nil, fmt.Errorf("rdma: need at least one connection")
	}
	if opt.MaxSweep <= 0 {
		opt.MaxSweep = 256
	}
	if opt.SportBase == 0 {
		opt.SportBase = 49152
	}
	planes := len(net.Top.Hosts[src.Host].NICs[src.NIC].Ports)
	cs := &ConnSet{Net: net}
	now := net.Eng.Now()

	sport := opt.SportBase
	for plane := 0; plane < planes; plane++ {
		want := opt.Conns / planes
		if plane < opt.Conns%planes {
			want++
		}
		used := map[topo.LinkID]bool{}
		got := 0
		for sweep := 0; sweep < opt.MaxSweep && got < want; sweep++ {
			sport++
			tuple := hashing.FiveTuple{
				SrcAddr: src.Addr(), DstAddr: dst.Addr(),
				SrcPort: sport, DstPort: 4791, Proto: 17,
			}
			path, blackholed, err := net.R.Path(src, dst, plane, tuple, now)
			cs.Probes++
			if err != nil || blackholed {
				continue
			}
			if overlaps(fabricOf(path), used) {
				continue
			}
			for _, lk := range fabricOf(path) {
				used[lk] = true
			}
			cs.Conns = append(cs.Conns, &Conn{
				Src: src, Dst: dst,
				Route: netsim.Route{Path: path, Port: int32(plane), Sport: sport},
			})
			got++
		}
	}
	if len(cs.Conns) == 0 {
		return nil, fmt.Errorf("rdma: no usable path from %v to %v", src, dst)
	}
	return cs, nil
}

// fabricOf strips the access hops (first and last link), which every
// same-plane connection necessarily shares.
func fabricOf(path []topo.LinkID) []topo.LinkID {
	if len(path) <= 2 {
		return nil
	}
	return path[1 : len(path)-1]
}

func overlaps(links []topo.LinkID, used map[topo.LinkID]bool) bool {
	for _, lk := range links {
		if used[lk] {
			return true
		}
	}
	return false
}

// Disjoint reports whether the set's fabric paths are pairwise disjoint
// within each plane (the Algorithm 1 postcondition).
func (cs *ConnSet) Disjoint() bool {
	perPlane := map[int32]map[topo.LinkID]bool{}
	for _, c := range cs.Conns {
		m := perPlane[c.Route.Port]
		if m == nil {
			m = map[topo.LinkID]bool{}
			perPlane[c.Route.Port] = m
		}
		for _, lk := range fabricOf(c.Route.Path) {
			if m[lk] {
				return false
			}
			m[lk] = true
		}
	}
	return true
}

// pick is Algorithm 2 (PathSelection): the connection with the minimal
// outstanding WQE bytes.
func (cs *ConnSet) pick() *Conn {
	best := cs.Conns[0]
	for _, c := range cs.Conns[1:] {
		if c.wqeBytes < best.wqeBytes {
			best = c
		}
	}
	return best
}

// Send posts a message: Algorithm 2 picks the least-loaded connection, the
// WQE counter grows, and the flow is injected with the connection's pinned
// sport and plane. The counter shrinks when the CQE (flow completion)
// returns. The returned flow follows netsim.StartFlow's lifetime: valid
// while in flight and inside onComplete, recycled afterwards unless pinned
// (netsim.Flow.Pin).
func (cs *ConnSet) Send(bytes float64, onComplete func(now sim.Time)) (*netsim.Flow, error) {
	c := cs.pick()
	return cs.post(c, bytes, onComplete)
}

// post dispatches one message on a specific connection.
func (cs *ConnSet) post(c *Conn, bytes float64, onComplete func(now sim.Time)) (*netsim.Flow, error) {
	c.wqeBytes += bytes
	c.SentBytes += bytes
	if c.doneFn == nil {
		c.doneFn = c.flowDone
	}
	return cs.Net.StartFlow(c.Src, c.Dst, bytes, netsim.FlowOpts{
		SrcPort:    int(c.Route.Port),
		OnComplete: c.doneFn,
		After:      onComplete,
		Route:      &c.Route,
	})
}

// SendOn bypasses Algorithm 2 and posts on a specific connection — the
// baseline ("blind") dispatch used by the sec61b ablation. The returned
// flow has Send's lifetime.
func (cs *ConnSet) SendOn(i int, bytes float64, onComplete func(now sim.Time)) (*netsim.Flow, error) {
	c := cs.Conns[i%len(cs.Conns)]
	return cs.post(c, bytes, onComplete)
}
