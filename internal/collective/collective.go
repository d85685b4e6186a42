// Package collective implements the communication library layer of the
// paper: rail-aligned hierarchical collectives (AllReduce with NVLS,
// AllGather, Multi-AllReduce, PP Send/Recv) executed as real flows over the
// simulated fabric, dispatched over disjoint-path RDMA connections with the
// least-WQE balancing of Appendix B.
//
// Inter-host stages run as synchronous ring rounds of simulated flows, so
// congestion, ECMP collisions, hash polarization and failures all shape the
// timing. Intra-host stages (NVLink/NVSwitch) are analytic delays with
// calibrated effective bandwidths; they are identical across fabrics and
// therefore never affect which architecture wins, only absolute levels
// (DESIGN.md, "Key modeling decisions").
package collective

import (
	"fmt"

	"hpn/internal/netsim"
	"hpn/internal/rdma"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/telemetry"
)

// PathPolicy selects how per-pair connections are established.
type PathPolicy uint8

// Path policies, from HPN's scheme down to the baselines.
const (
	// PolicyDisjoint is HPN's: RePaC-predicted pairwise disjoint paths +
	// least-WQE dispatch (Algorithms 1 and 2).
	PolicyDisjoint PathPolicy = iota
	// PolicyBlind opens the same number of connections without predicting
	// paths (they may overlap), still balancing by WQE counters — the
	// "blindly select multiple paths" host-based baseline.
	PolicyBlind
	// PolicySingle uses one connection per pair (classic single-QP rings).
	PolicySingle
)

// Config tunes the library.
type Config struct {
	// ConnsPerPair is the number of RDMA connections per ring neighbor.
	ConnsPerPair int
	// ChunksPerMessage splits each ring-step message for dispatch across
	// connections (Algorithm 2 picks per chunk).
	ChunksPerMessage int
	Policy           PathPolicy

	// SportBase, when non-zero, seeds the source-port sweep used during
	// connection establishment; varying it re-rolls every ECMP placement
	// (useful for multi-trial experiments).
	SportBase uint16
}

// Intra-host (H800 NVLink/NVSwitch) effective per-GPU bandwidths, GB/s.
// NVLS is modelled by the gap between the two: AllReduce's reduce-scatter
// and allgather stages run at the NVSwitch in-network-reduction rate, the
// plain AllGather's NVSwitch stage at the copy rate, which is the bound
// that makes Figure 17b insensitive to the fabric.
const (
	nvlinkReduceGBps float64 = 400
	nvlinkGatherGBps float64 = 100
)

// DefaultConfig returns production-shaped settings (H800-class hosts,
// NCCL 2.18-like behaviour).
func DefaultConfig() Config {
	return Config{
		ConnsPerPair:     2,
		ChunksPerMessage: 2,
		Policy:           PolicyDisjoint,
	}
}

// Group is a set of hosts (all 8 rails of each) that perform collectives
// together, with the ring connections pre-established.
type Group struct {
	Net   *netsim.Sim
	Cfg   Config
	Hosts []int
	Rails int

	// conns[rail][i] connects Hosts[i] -> Hosts[(i+1)%len] on that rail.
	conns [][]*rdma.ConnSet

	// tid is the group's trace track; groups are keyed by their first host
	// so concurrent groups render on separate rows.
	tid       int
	ctrOps    *telemetry.Counter
	ctrRounds *telemetry.Counter
}

// NewGroup establishes ring connections among hosts over all rails.
func NewGroup(net *netsim.Sim, cfg Config, hosts []int, rails int) (*Group, error) {
	if len(hosts) < 2 {
		return nil, fmt.Errorf("collective: need at least 2 hosts, got %d", len(hosts))
	}
	if cfg.ConnsPerPair <= 0 {
		cfg.ConnsPerPair = 1
	}
	if cfg.ChunksPerMessage <= 0 {
		cfg.ChunksPerMessage = 1
	}
	g := &Group{Net: net, Cfg: cfg, Hosts: hosts, Rails: rails}
	g.tid = telemetry.TidCollectiveBase + hosts[0]
	g.ctrOps = net.Reg.Counter(net.MetricsPrefix+"collective_ops_total", "completed collective operations")
	g.ctrRounds = net.Reg.Counter(net.MetricsPrefix+"collective_rounds_total", "completed inter-host ring rounds")
	if net.Trace != nil {
		net.Trace.NameThread(g.tid, fmt.Sprintf("collective group@%d", hosts[0]))
	}
	opts := rdma.EstablishOpts{Conns: cfg.ConnsPerPair, MaxSweep: 512, SportBase: 20000}
	if cfg.SportBase != 0 {
		opts.SportBase = cfg.SportBase
	}
	if cfg.Policy == PolicySingle {
		opts.Conns = 1
	}
	g.conns = make([][]*rdma.ConnSet, rails)
	for r := 0; r < rails; r++ {
		g.conns[r] = make([]*rdma.ConnSet, len(hosts))
		for i := range hosts {
			src := route.Endpoint{Host: hosts[i], NIC: r}
			dst := route.Endpoint{Host: hosts[(i+1)%len(hosts)], NIC: r}
			var (
				cs  *rdma.ConnSet
				err error
			)
			switch cfg.Policy {
			case PolicyBlind:
				cs, err = establishBlind(net, src, dst, opts)
			default:
				cs, err = rdma.EstablishConns(net, src, dst, opts)
			}
			if err != nil {
				return nil, fmt.Errorf("collective: ring %d->%d rail %d: %w", hosts[i], dst.Host, r, err)
			}
			g.conns[r][i] = cs
		}
	}
	return g, nil
}

// establishBlind opens conns on consecutive source ports without path
// prediction: whatever ECMP gives, possibly overlapping.
func establishBlind(net *netsim.Sim, src, dst route.Endpoint, opt rdma.EstablishOpts) (*rdma.ConnSet, error) {
	cs := &rdma.ConnSet{Net: net}
	planes := len(net.Top.Hosts[src.Host].NICs[src.NIC].Ports)
	sport := opt.SportBase
	for i := 0; i < opt.Conns; i++ {
		sport++
		cs.Conns = append(cs.Conns, &rdma.Conn{
			Src: src, Dst: dst, Route: netsim.Route{Port: int32(i % planes), Sport: sport},
		})
	}
	return cs, nil
}

// GPUs returns the number of GPUs in the group.
func (g *Group) GPUs() int { return len(g.Hosts) * g.Rails }

// ScheduleFingerprint folds the group's static traffic shape into an
// iteration-memoization fingerprint: membership, ring layout, the config
// knobs that change chunking or timing, and every established connection's
// pinned source port and plane. Two iterations launched through groups
// with equal fingerprints (over equal fabric state) produce identical
// flow schedules. Dynamic per-connection counters (WQE bytes, sent-byte
// totals) are excluded: WQEs are always drained at iteration boundaries,
// and sent-byte totals don't influence dispatch.
func (g *Group) ScheduleFingerprint(h *netsim.Hasher) {
	h.Mix(uint64(len(g.Hosts)))
	for _, host := range g.Hosts {
		h.Mix(uint64(host))
	}
	h.Mix(uint64(g.Rails))
	h.Mix(uint64(g.Cfg.ConnsPerPair))
	h.Mix(uint64(g.Cfg.ChunksPerMessage))
	h.Mix(uint64(g.Cfg.Policy))
	for _, rail := range g.conns {
		for _, cs := range rail {
			if cs == nil {
				continue
			}
			h.Mix(uint64(len(cs.Conns)))
			for _, cn := range cs.Conns {
				h.Mix(uint64(cn.Route.Sport)<<8 | uint64(cn.Route.Port))
			}
		}
	}
}

// Result reports one collective's outcome.
type Result struct {
	Op      string
	Bytes   float64
	Elapsed sim.Time
	// AlgBW = Bytes / Elapsed; BusBW follows the NCCL convention for the
	// operation.
	AlgBW float64
	BusBW float64
}

// Op is an in-flight collective; Done fires its callback.
type Op struct {
	g       *Group
	name    string
	bytes   float64
	chunk   float64 // per pair per step
	steps   int
	rails   []int
	pre     sim.Time
	post    sim.Time
	started sim.Time

	// postOverlapsInter marks ops (AllGather) whose NVSwitch stage is
	// pipelined with the inter-host rings: the op finishes at
	// max(inter completion, start + post) instead of inter + post.
	postOverlapsInter bool

	step       int
	pending    int
	roundStart sim.Time
	onDone     func(now sim.Time, r Result)

	// doneFn is o.flowDone bound once at start: evaluating the method value
	// inside the send loop allocated a closure per chunk, hundreds per ring
	// round.
	doneFn func(now sim.Time)
}

// busFactor returns the BusBW multiplier for the op (NCCL conventions).
func (o *Op) busFactor() float64 {
	n := float64(o.g.GPUs())
	switch o.name {
	case "allreduce":
		return 2 * (n - 1) / n
	case "allgather":
		return (n - 1) / n
	case "multiallreduce":
		h := float64(len(o.g.Hosts))
		return 2 * (h - 1) / h
	default:
		return 1
	}
}
