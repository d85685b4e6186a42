// Package route computes forwarding paths over a topo.Topology the way the
// HPN control plane does: valley-free up/down routing with per-switch ECMP
// hashing, /32 host routes learned from ARP (§4.2), dual-plane confinement
// (§6.1), per-port hashing at the Core tier (§7), and BGP-style convergence
// after failures.
//
// The router distinguishes two views of a failed link:
//
//   - the physical view (topo link state), which determines whether traffic
//     placed on the link actually moves, and
//   - the converged view, which determines whether the link is still inside
//     ECMP groups. Between a failure and BGP convergence the dead link keeps
//     attracting hashed flows — they blackhole, exactly like production.
//
// The source-side bond (LACP mode 4) fails over instantly on LOCAL port
// failure (physical signal), but learns about REMOTE failures only through
// routing convergence.
package route

import (
	"fmt"
	"slices"
	"sort"

	"hpn/internal/hashing"
	"hpn/internal/sim"
	"hpn/internal/telemetry"
	"hpn/internal/topo"
)

// Endpoint names one NIC of one host; the unit that owns an IP address.
type Endpoint struct {
	Host int
	NIC  int
}

// Addr returns the abstract IP of the endpoint, the value used in
// FiveTuple.{Src,Dst}Addr.
func (e Endpoint) Addr() uint32 { return uint32(e.Host)<<8 | uint32(e.NIC) }

// Router answers path queries over one topology.
type Router struct {
	T *topo.Topology
	// ConvergenceDelay is the time between a link/node failure and the
	// withdrawal of its routes from all ECMP groups (BGP + host-route
	// propagation). Recovery uses the same delay.
	ConvergenceDelay sim.Time

	// downAdj[node] lists the node's downlinks grouped by peer, sorted by
	// peer ID. The ordered representation (rather than a map keyed by
	// peer) guarantees that any iteration over the adjacency — today's
	// ECMP group construction and anything added later — is deterministic
	// by construction; Go map order must never reach path selection
	// (hpnlint:maporder).
	downAdj map[topo.NodeID][]peerLinks

	// failedAt records when a link last went down; entries are cleared on
	// recovery. Used to decide whether routing has converged around it.
	// Lookup-only by design: never range over it — aggregate walks must go
	// through sorted keys so failure bookkeeping can't leak map order into
	// reconvergence behaviour (enforced by hpnlint's maporder rule).
	failedAt map[topo.LinkID]sim.Time
	// nodeFailedAt is the same for whole nodes (ToR crash); the same
	// lookup-only rule applies.
	nodeFailedAt map[topo.NodeID]sim.Time
	// lastFailAt is the latest failure instant ever noted; Settled
	// compares it with the current ConvergenceDelay.
	lastFailAt sim.Time

	// Tracer, when set, receives BGP-withdrawal/convergence spans and INT
	// path-trace instants.
	Tracer *telemetry.Tracer

	// group is the scratch every ECMP group that is not the adjacency
	// itself is built in. A path walk consumes each group before asking
	// for the next, so one slice serves every hop; it is also why a Router
	// must not be shared between goroutines (each netsim.Sim owns its own).
	group []topo.LinkID
}

// peerLinks groups one node's downlinks toward a single peer.
type peerLinks struct {
	peer  topo.NodeID
	links []topo.LinkID
}

// New builds a router for t. ConvergenceDelay defaults to one second, a
// production-plausible BGP propagation time.
func New(t *topo.Topology) *Router {
	r := &Router{
		T:                t,
		ConvergenceDelay: 1 * sim.Second,
		downAdj:          map[topo.NodeID][]peerLinks{},
		failedAt:         map[topo.LinkID]sim.Time{},
		nodeFailedAt:     map[topo.NodeID]sim.Time{},
	}
	for _, n := range t.Nodes {
		if len(n.Downlinks) == 0 {
			continue
		}
		var adj []peerLinks
		for _, lk := range n.Downlinks {
			peer := t.Link(lk).To
			i := sort.Search(len(adj), func(i int) bool { return adj[i].peer >= peer })
			if i == len(adj) || adj[i].peer != peer {
				adj = append(adj, peerLinks{})
				copy(adj[i+1:], adj[i:])
				adj[i] = peerLinks{peer: peer}
			}
			adj[i].links = append(adj[i].links, lk)
		}
		r.downAdj[n.ID] = adj
	}
	return r
}

// downLinks returns node's downlinks toward peer (nil if not adjacent).
func (r *Router) downLinks(node, peer topo.NodeID) []topo.LinkID {
	adj := r.downAdj[node]
	i := sort.Search(len(adj), func(i int) bool { return adj[i].peer >= peer })
	if i < len(adj) && adj[i].peer == peer {
		return adj[i].links
	}
	return nil
}

// NoteLinkFailed records the failure instant of a cable; the caller is
// responsible for flipping the topo state.
func (r *Router) NoteLinkFailed(l topo.LinkID, at sim.Time) {
	r.noteFailure(at)
	r.failedAt[l] = at
	r.failedAt[r.T.Link(l).Reverse] = at
	// Convergence in this router is lazy (queries consult failedAt), so the
	// withdrawal window is known in full at failure time: emit the span now.
	if r.Tracer != nil {
		r.Tracer.Complete(int64(at), int64(r.ConvergenceDelay),
			"route", "bgp_withdrawal", telemetry.TidRoute,
			telemetry.Arg{K: "link", V: int(l)})
	}
}

// NoteLinkRecovered clears failure bookkeeping; recovered links re-enter
// ECMP groups after ConvergenceDelay (modeled by treating a fresh recovery
// as instantly usable — BGP re-advertisement is fast and adding a path
// early is harmless, unlike removing one late).
func (r *Router) NoteLinkRecovered(l topo.LinkID) {
	delete(r.failedAt, l)
	delete(r.failedAt, r.T.Link(l).Reverse)
}

// NoteNodeFailed / NoteNodeRecovered are the node-level equivalents. No
// program calls them; they stay as part of the node-failure chain (the §4
// ToR crash) that the allocator-differential and route-cache tests drive.
func (r *Router) NoteNodeFailed(n topo.NodeID, at sim.Time) {
	r.noteFailure(at)
	r.nodeFailedAt[n] = at
	if r.Tracer != nil {
		r.Tracer.Complete(int64(at), int64(r.ConvergenceDelay),
			"route", "node_withdrawal", telemetry.TidRoute,
			telemetry.Arg{K: "node", V: int(n)})
	}
}

// NoteNodeRecovered clears a node failure; see NoteNodeFailed for why it
// stays.
func (r *Router) NoteNodeRecovered(n topo.NodeID) { delete(r.nodeFailedAt, n) }

// noteFailure advances lastFailAt to at.
func (r *Router) noteFailure(at sim.Time) {
	if at > r.lastFailAt {
		r.lastFailAt = at
	}
}

// Settled reports whether every failure this router has noted is either
// recovered or past ConvergenceDelay at now. While it holds, path walks
// depend only on link usability, not on now, so a walk's result stays
// valid until the topology's usability generation (topo.Topology.Gen)
// moves; while a convergence is pending, they do not.
func (r *Router) Settled(now sim.Time) bool {
	return len(r.failedAt) == 0 && len(r.nodeFailedAt) == 0 ||
		now >= r.lastFailAt+r.ConvergenceDelay
}

// converged reports whether routing has reacted to the failure of l by now.
func (r *Router) converged(l topo.LinkID, now sim.Time) bool {
	lk := r.T.Link(l)
	if at, ok := r.failedAt[l]; ok && now < at+r.ConvergenceDelay {
		return false
	}
	if at, ok := r.nodeFailedAt[lk.From]; ok && now < at+r.ConvergenceDelay {
		return false
	}
	if at, ok := r.nodeFailedAt[lk.To]; ok && now < at+r.ConvergenceDelay {
		return false
	}
	return true
}

// inGroup reports whether link l is currently a member of ECMP groups:
// usable links always are; failed links remain until convergence.
func (r *Router) inGroup(l topo.LinkID, now sim.Time) bool {
	if r.T.LinkUsable(l) {
		return true
	}
	return !r.converged(l, now)
}

// PickAccessPort chooses the source NIC port (and therefore the plane) for
// a new flow, as the host bond does: hash over the live candidates. A port
// is a candidate when the local access link is physically up (instant local
// knowledge) and the destination's same-plane access is not known-dead
// (converged remote knowledge).
func (r *Router) PickAccessPort(src, dst Endpoint, tuple hashing.FiveTuple, now sim.Time) (int, error) {
	srcNIC := r.T.Hosts[src.Host].NICs[src.NIC]
	dstNIC := r.T.Hosts[dst.Host].NICs[dst.NIC]
	// A NIC has at most two ports (one per ToR under dual-ToR), so the
	// candidates fit a stack array and picking a port allocates nothing.
	var buf [2]int
	candidates := buf[:0]
	for p, lk := range srcNIC.Ports {
		if !r.T.LinkUsable(lk) {
			continue // local failure: bond excludes instantly
		}
		// Under dual-plane, port p can only deliver to the destination's
		// port p; a converged remote withdrawal makes the whole plane
		// unusable for this destination. Single-plane fabrics can reach
		// any surviving destination port from any source port.
		if r.T.Planes > 1 && p < len(dstNIC.Ports) {
			dl := dstNIC.Ports[p]
			if !r.T.LinkUsable(dl) && r.converged(dl, now) {
				continue // remote failure, routing has converged: avoid
			}
		}
		candidates = append(candidates, p)
	}
	if len(candidates) == 0 {
		return 0, fmt.Errorf("route: no live access port from %v to %v", src, dst)
	}
	h := hashing.Hasher{Seed: 0xb0dd} // bond hash; one function per host is fine
	return candidates[h.Select(tuple, len(candidates))], nil
}

// HopDecision records how one link of a path was chosen — the in-band
// telemetry a production INT deployment would stamp into packet metadata at
// each switch. One decision is emitted per path link, in path order. Links
// that involve no hashing (the source access link, ToR->host delivery)
// carry Hashed=false and zeroed hash fields.
type HopDecision struct {
	// Link is the chosen directed link; it equals the path entry at the
	// same index.
	Link topo.LinkID
	// Node is the switch that made the ECMP choice (None for unhashed hops).
	Node topo.NodeID
	// Hashed marks ECMP stages; unhashed hops are access/delivery links.
	Hashed bool
	// Seed is the deciding switch's hash seed (the polarization fingerprint:
	// shared seeds across tiers are what degenerate conditional bucket
	// distributions trace back to).
	Seed uint64
	// Group is the ECMP group size and Bucket the selected member index.
	Group  int
	Bucket int
	// PerPort marks the §7 per-(ingress-port, dst-pod) Core hash; Fallback
	// marks the dead-member 5-tuple fallback of that mode.
	PerPort  bool
	Fallback bool
	// Down reports whether the group pointed toward the hosts.
	Down bool
}

// Path walks the fabric from src to dst for the given tuple, entering at
// srcPort. It returns the ordered directed links. If a hop hashes onto a
// link that is physically dead but not yet withdrawn, the walk still takes
// it and reports blackholed=true: the flow will stall there until routing
// converges and the path is recomputed.
func (r *Router) Path(src, dst Endpoint, srcPort int, tuple hashing.FiveTuple, now sim.Time) (path []topo.LinkID, blackholed bool, err error) {
	return r.AppendPath(nil, src, dst, srcPort, tuple, now, nil)
}

// AppendPath is Path appending the links to buf, so a caller that keeps
// one buffer per flow routes without allocating; path shares buf's
// backing array whenever it fits. When obs is non-nil it is invoked once
// per appended path link, in order, with the hash decision (or lack of
// one) behind that hop — the in-band view. On an error before the first
// link, buf comes back unchanged.
func (r *Router) AppendPath(buf []topo.LinkID, src, dst Endpoint, srcPort int, tuple hashing.FiveTuple, now sim.Time, obs func(HopDecision)) (path []topo.LinkID, blackholed bool, err error) {
	t := r.T
	if src.Host == dst.Host {
		return buf, false, fmt.Errorf("route: intra-host traffic does not use the fabric")
	}
	access := t.Hosts[src.Host].NICs[src.NIC].Ports[srcPort]
	if !t.LinkUsable(access) {
		return buf, false, fmt.Errorf("route: source access port %d down", srcPort)
	}
	// Host->ToR->Agg->Core->Agg->ToR->host is 6 hops; room for 8 covers
	// every valley-free walk without regrowing mid-path.
	path = append(slices.Grow(buf, 8), access)
	if obs != nil {
		obs(HopDecision{Link: access, Node: topo.None})
	}
	cur := t.Link(access).To
	arriving := access

	const maxHops = 16
	for hop := 0; hop < maxHops; hop++ {
		node := t.Node(cur)
		// Delivery: is dst attached to this node via a link still in the
		// FIB? Once the /32 is withdrawn (dead + converged) the ToR routes
		// the prefix back up through the fabric toward the surviving ToR —
		// the §4.2 ARP-proxy + host-route behaviour.
		if node.Kind == topo.KindToR {
			if down, ok := r.deliveryLink(cur, dst); ok {
				if t.LinkUsable(down) || !r.converged(down, now) {
					if obs != nil {
						obs(HopDecision{Link: down, Node: topo.None, Down: true})
					}
					return append(path, down), !t.LinkUsable(down), nil
				}
				// Withdrawn: fall through to the ECMP walk.
			}
		}
		group, down := r.ecmpGroup(cur, dst, now)
		if len(group) == 0 {
			return path, true, fmt.Errorf("route: empty ECMP group at %s toward %v", node.Name, dst)
		}
		var chosen topo.LinkID
		bucket, perPort, fallback := 0, false, false
		if node.PerPortHash && down {
			// §7: per-(ingress port, dst pod) hash at the Core, falling
			// back to the 5-tuple hash if the preferred member is dead.
			ph := hashing.PortHasher{Seed: node.HashSeed}
			dstPod := t.Hosts[dst.Host].Pod
			bucket, perPort = ph.Select(t.Link(arriving).ToPort, dstPod, len(group)), true
			chosen = group[bucket]
			if !t.LinkUsable(chosen) && r.converged(chosen, now) {
				fallback = true
				bucket = ph.FallbackSelect(tuple, len(group))
				chosen = group[bucket]
			}
		} else {
			h := hashing.Hasher{Seed: node.HashSeed}
			bucket = h.Select(tuple, len(group))
			chosen = group[bucket]
		}
		path = append(path, chosen)
		if obs != nil {
			obs(HopDecision{
				Link: chosen, Node: cur, Hashed: true, Seed: node.HashSeed,
				Group: len(group), Bucket: bucket, PerPort: perPort,
				Fallback: fallback, Down: down,
			})
		}
		if !t.LinkUsable(chosen) {
			return path, true, nil
		}
		arriving = chosen
		cur = t.Link(chosen).To
	}
	return path, true, fmt.Errorf("route: no delivery within %d hops", maxHops)
}

// deliveryLink returns the ToR->host downlink if dst has an access port on
// tor (whatever its state; the caller handles dead delivery links).
func (r *Router) deliveryLink(tor topo.NodeID, dst Endpoint) (topo.LinkID, bool) {
	for _, up := range r.T.Hosts[dst.Host].NICs[dst.NIC].Ports {
		l := r.T.Link(up)
		if l.To == tor {
			return l.Reverse, true
		}
	}
	return topo.None, false
}

// ecmpGroup returns the ECMP members at node toward dst, and whether the
// group points downward (toward hosts). Members are links still advertised
// (inGroup); physically-dead-but-advertised members are included on purpose.
// The group aliases either the topology's adjacency or the router's group
// scratch, so it is valid only until the next call; callers index it and
// never mutate it.
func (r *Router) ecmpGroup(node topo.NodeID, dst Endpoint, now sim.Time) ([]topo.LinkID, bool) {
	t := r.T
	n := t.Node(node)
	dstHost := t.Hosts[dst.Host]

	switch n.Kind {
	case topo.KindToR:
		// Up toward the Aggs (dst not attached here).
		return r.filterGroup(n.Uplinks, now), false

	case topo.KindAgg:
		if dstHost.Pod == n.Pod {
			// Down to the ToR(s) that advertise dst's /32 in this plane.
			group := r.group[:0]
			for _, up := range dstHost.NICs[dst.NIC].Ports {
				al := t.Link(up)
				tor := t.Node(al.To)
				if t.Planes > 1 && tor.Plane != n.Plane {
					continue
				}
				// The ToR advertises the /32 only while the access link is
				// alive (or not yet withdrawn).
				if !r.inGroup(up, now) {
					continue
				}
				for _, dl := range r.downLinks(node, al.To) {
					if r.inGroup(dl, now) {
						group = append(group, dl)
					}
				}
			}
			sortLinks(group)
			r.group = group
			return group, true
		}
		// Up toward the Cores.
		return r.filterGroup(n.Uplinks, now), false

	case topo.KindCore:
		// Down to the Aggs of dst's pod (this plane, by construction).
		group := r.group[:0]
		for _, agg := range t.Aggs(dstHost.Pod, n.Plane) {
			for _, dl := range r.downLinks(node, agg) {
				if r.inGroup(dl, now) {
					group = append(group, dl)
				}
			}
		}
		sortLinks(group)
		r.group = group
		return group, true
	}
	return nil, false
}

// filterGroup drops withdrawn members. The common case — every member
// still advertised — returns the input slice itself; callers only index the
// group, never mutate it, so aliasing the adjacency is safe. Otherwise the
// survivors are copied into the group scratch.
func (r *Router) filterGroup(links []topo.LinkID, now sim.Time) []topo.LinkID {
	for i, l := range links {
		if !r.inGroup(l, now) {
			out := append(r.group[:0], links[:i]...)
			for _, l := range links[i+1:] {
				if r.inGroup(l, now) {
					out = append(out, l)
				}
			}
			r.group = out
			return out
		}
	}
	return links
}

// sortLinks is an insertion sort: groups are small (tens of members at
// most) and sort.Slice's reflection-based swapper allocates on every call
// in the path-walk hot loop.
func sortLinks(ls []topo.LinkID) {
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j] < ls[j-1]; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
}

// GroupSizeAtToR returns the ECMP fan-out a host faces at its ToR — the
// search space of Table 1 for this fabric.
func (r *Router) GroupSizeAtToR(host, nic, port int) int {
	access := r.T.Hosts[host].NICs[nic].Ports[port]
	tor := r.T.Link(access).To
	return len(r.T.Node(tor).Uplinks)
}
