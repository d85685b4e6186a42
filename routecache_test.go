package hpn

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hpn/internal/core"
	"hpn/internal/metrics"
	"hpn/internal/netsim"
	"hpn/internal/rdma"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

// The route-cache differential tests: every RDMA connection caches the
// path its last walk confirmed (netsim.Route), and a flow posted on it
// copies that path instead of walking while the fabric is unchanged and
// the router settled. A subscriber that wants EvFlowRouted forces every
// flow to walk, so running one seeded schedule with and without such a
// subscriber compares cached routing against walking with no knob. The
// golden determinism suite cannot catch a stale cache: every golden
// scenario turns in-band telemetry on, which also forces the walk.

// walkForcer wants EvFlowRouted and ignores it: its interest alone makes
// every flow walk the fabric.
type walkForcer struct{}

func (walkForcer) Kinds() netsim.EventKind     { return netsim.EvFlowRouted }
func (walkForcer) FabricEvent(e *netsim.Event) {}

// domainResult is what one simulator leaves behind after a run. paths
// digests the port and path every connection flow started on: on a
// lightly loaded fabric a stale path can leave every rate, and so the
// flow log, unchanged.
type domainResult struct {
	flowLog         []byte
	completed       int64
	aggBits, coreBs metrics.ExactSum
	stateHash       uint64
	paths           uint64
}

func resultOf(t *testing.T, s *netsim.Sim, paths *netsim.Hasher) domainResult {
	t.Helper()
	var b bytes.Buffer
	if err := s.WriteFlowLog(&b); err != nil {
		t.Fatal(err)
	}
	return domainResult{b.Bytes(), s.CompletedFlows, s.AggBits, s.CoreBits, s.StateHash64(), paths.Sum()}
}

// requireSameRuns compares the cached run against the walking one, domain
// by domain.
func requireSameRuns(t *testing.T, cached, walked []domainResult) {
	t.Helper()
	for d := range cached {
		c, w := cached[d], walked[d]
		if c.completed == 0 {
			t.Fatalf("domain %d completed no flows; the schedule tests nothing", d)
		}
		if c.completed != w.completed || c.aggBits != w.aggBits || c.coreBs != w.coreBs || c.stateHash != w.stateHash {
			t.Fatalf("domain %d: cached run completed %d flows (agg %v, core %v bits, state %#x); walking run %d (agg %v, core %v, state %#x)",
				d, c.completed, c.aggBits, c.coreBs, c.stateHash, w.completed, w.aggBits, w.coreBs, w.stateHash)
		}
		if c.paths != w.paths {
			t.Fatalf("domain %d: connection flows started on different ports or paths", d)
		}
		if !bytes.Equal(c.flowLog, w.flowLog) {
			t.Fatalf("domain %d: flow logs differ at byte %d", d, firstDiff(c.flowLog, w.flowLog))
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// fabricAction is one step of a seeded fault schedule.
type fabricAction struct {
	at    sim.Time
	kind  string // "fail-cable", "recover-cable", "fail-node", "recover-node", "delay"
	link  topo.LinkID
	node  topo.NodeID
	delay sim.Time
}

// apply runs the action on its owning simulator at its instant.
func (a fabricAction) apply(net *netsim.Sim) {
	switch a.kind {
	case "fail-cable":
		net.FailCable(a.link)
	case "recover-cable":
		net.RecoverCable(a.link)
	case "fail-node":
		net.FailNode(a.node)
	case "recover-node":
		net.RecoverNode(a.node)
	case "delay":
		net.R.ConvergenceDelay = a.delay
	}
}

// faultSchedule draws failure episodes over links and nodes within
// [0, horizon): outages that outlast the 1 s convergence delay, recoveries
// inside it, and flap trains whose edges land inside each other's
// convergence windows, plus one ConvergenceDelay change.
func faultSchedule(rng *rand.Rand, horizon sim.Time, links []topo.LinkID, nodes []topo.NodeID, episodes int) []fabricAction {
	var out []fabricAction
	span := func(lo, hi sim.Time) sim.Time { return lo + sim.Time(rng.Int63n(int64(hi-lo))) }
	for i := 0; i < episodes; i++ {
		at := span(0, horizon*3/4)
		fail, recover := "fail-cable", "recover-cable"
		a := fabricAction{link: links[rng.Intn(len(links))]}
		if len(nodes) > 0 && rng.Intn(3) == 0 {
			fail, recover = "fail-node", "recover-node"
			a = fabricAction{node: nodes[rng.Intn(len(nodes))]}
		}
		cycles, down, up := 1, span(1500*sim.Millisecond, 3*sim.Second), sim.Time(0)
		switch rng.Intn(3) {
		case 1: // recovered before routing converges
			down = span(50*sim.Millisecond, 900*sim.Millisecond)
		case 2: // flap train
			cycles = 2 + rng.Intn(3)
			down, up = span(100*sim.Millisecond, 700*sim.Millisecond), span(100*sim.Millisecond, 500*sim.Millisecond)
		}
		for c := 0; c < cycles; c++ {
			a.at, a.kind = at, fail
			out = append(out, a)
			at += down
			a.at, a.kind = at, recover
			out = append(out, a)
			at += up
		}
	}
	delays := []sim.Time{300 * sim.Millisecond, 2 * sim.Second}
	out = append(out, fabricAction{at: span(0, horizon), kind: "delay", delay: delays[rng.Intn(len(delays))]})
	return out
}

// pathParts returns the distinct links and switches on the connections'
// established paths: the failures that matter to their route caches.
func pathParts(top *topo.Topology, sets []*rdma.ConnSet) ([]topo.LinkID, []topo.NodeID) {
	var links []topo.LinkID
	var nodes []topo.NodeID
	seenL, seenN := map[topo.LinkID]bool{}, map[topo.NodeID]bool{}
	for _, cs := range sets {
		for _, c := range cs.Conns {
			for _, lk := range c.Route.Path {
				if !seenL[lk] {
					seenL[lk] = true
					links = append(links, lk)
				}
				if n := top.Link(lk).To; top.Node(n).Kind != topo.KindHost && !seenN[n] {
					seenN[n] = true
					nodes = append(nodes, n)
				}
			}
		}
	}
	return links, nodes
}

// connTraffic keeps two messages in flight on every connection set until
// horizon, each next message posted a short gap after a completion, with
// sizes cycling from 256 KiB to 4 MiB. Odd sets post blind (SendOn), even
// ones through Algorithm 2. Each started flow's ID, port and path are
// mixed into the returned digest.
func connTraffic(t *testing.T, eng *sim.Engine, sets []*rdma.ConnSet, horizon sim.Time) *netsim.Hasher {
	paths := netsim.NewHasher()
	for i, cs := range sets {
		cs, blind, k := cs, i%2 == 1, 0
		var post func()
		post = func() {
			if eng.Now() >= horizon {
				return
			}
			k++
			size := float64(int64(256<<10) << (k % 5))
			next := func(sim.Time) { eng.Schedule(sim.Time(k%7+1)*sim.Millisecond, post) }
			var f *netsim.Flow
			var err error
			if blind {
				f, err = cs.SendOn(k, size, next)
			} else {
				f, err = cs.Send(size, next)
			}
			if err != nil {
				t.Error(err)
				return
			}
			paths.Mix(uint64(f.ID))
			paths.Mix(uint64(f.Port))
			for _, lk := range f.Path {
				paths.Mix(uint64(lk))
			}
		}
		post()
		post()
	}
	return paths
}

// establishPairs opens a set of four connections for each host pair, on
// rail = pair index mod rails.
func establishPairs(t *testing.T, net *netsim.Sim, pairs [][2]int) []*rdma.ConnSet {
	t.Helper()
	rails := len(net.Top.Hosts[0].NICs)
	var sets []*rdma.ConnSet
	for i, p := range pairs {
		src, dst := route.Endpoint{Host: p[0], NIC: i % rails}, route.Endpoint{Host: p[1], NIC: i % rails}
		cs, err := rdma.EstablishConns(net, src, dst, rdma.EstablishOpts{Conns: 4, MaxSweep: 256, SportBase: uint16(30000 + 512*i)})
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, cs)
	}
	return sets
}

// runConnSchedule builds a fresh cluster, establishes connection sets
// between the given host pairs, plays the seeded schedule under
// connection traffic and returns the result. With walk set, a walkForcer
// is subscribed first.
func runConnSchedule(t *testing.T, build func() (*core.Cluster, error), pairs [][2]int, seed int64, walk bool) domainResult {
	t.Helper()
	c, err := build()
	if err != nil {
		t.Fatal(err)
	}
	c.Net.EnableFlowLog()
	if walk {
		c.Net.Subscribe(walkForcer{})
	}
	sets := establishPairs(t, c.Net, pairs)
	const horizon = 6 * sim.Second
	links, nodes := pathParts(c.Topo, sets)
	for _, a := range faultSchedule(rand.New(rand.NewSource(seed)), horizon, links, nodes, 6) {
		a := a
		c.Eng.ScheduleAt(a.at, func() { a.apply(c.Net) })
	}
	paths := connTraffic(t, c.Eng, sets, horizon)
	c.Eng.Run()
	return resultOf(t, c.Net, paths)
}

// TestRouteCacheMatchesWalk runs seeded fault schedules on an HPN dual-ToR
// fabric and a DCN+ fabric, once with connection route caches and once
// with every flow walking, and requires identical flow logs, completion
// and tier tallies, and state fingerprints.
func TestRouteCacheMatchesWalk(t *testing.T) {
	fabrics := []struct {
		name  string
		build func() (*core.Cluster, error)
		pairs [][2]int
	}{
		{"hpn", func() (*core.Cluster, error) { return core.NewHPN(SmallHPN(2, 4, 4)) },
			[][2]int{{0, 4}, {1, 5}, {2, 3}, {4, 1}, {6, 2}, {7, 0}, {3, 6}, {5, 7}}},
		{"dcn", func() (*core.Cluster, error) { return core.NewDCN(SmallDCN(2)) },
			[][2]int{{0, 64}, {1, 17}, {2, 3}, {65, 100}, {70, 5}, {127, 40}, {33, 34}, {90, 91}}},
	}
	for _, fab := range fabrics {
		for seed := int64(1); seed <= 4; seed++ {
			fab, seed := fab, seed
			t.Run(fmt.Sprintf("%s/seed%d", fab.name, seed), func(t *testing.T) {
				cached := runConnSchedule(t, fab.build, fab.pairs, seed, false)
				walked := runConnSchedule(t, fab.build, fab.pairs, seed, true)
				requireSameRuns(t, []domainResult{cached}, []domainResult{walked})
			})
		}
	}
}

// runShardedSchedule trains one DP job per pod of a 2-pod HPN on the
// sharded engine with 2 workers (collective rings over connection sets,
// pod-local and cross-pod) beside connTraffic on every domain, plays a
// seeded schedule of pod-0-local cable faults on pod 0's engine and
// core-tier faults (core switches, agg-core cables) on the global engine,
// and returns every domain's result, global first.
func runShardedSchedule(t *testing.T, seed int64, walk bool) []domainResult {
	t.Helper()
	sc, err := NewShardedHPN(MultiPodHPN(2, 1, 4, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	sc.SetWorkers(2)
	domains := append([]*Cluster{sc.Global}, sc.Pods...)
	for _, d := range domains {
		d.Net.EnableFlowLog()
		if walk {
			d.Net.Subscribe(walkForcer{})
		}
	}
	st, err := NewShardedTrainer(sc, LLaMa13B, Parallelism{TP: 8, PP: 1, DP: 4})
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 6 * sim.Second
	rng := rand.New(rand.NewSource(seed))
	var podLinks, coreLinks []topo.LinkID
	for _, l := range sc.Topo.Links {
		switch sc.Sharding.ShardOfLink(l.ID) {
		case 1:
			podLinks = append(podLinks, l.ID)
		case 0:
			coreLinks = append(coreLinks, l.ID)
		}
	}
	for _, a := range faultSchedule(rng, horizon, podLinks, nil, 4) {
		a, pod := a, sc.Pods[0]
		pod.Eng.ScheduleAt(a.at, func() { a.apply(pod.Net) })
	}
	var cores []topo.NodeID
	for _, n := range sc.Topo.Nodes {
		if n.Kind == topo.KindCore {
			cores = append(cores, n.ID)
		}
	}
	for _, a := range faultSchedule(rng, horizon, coreLinks, cores, 3) {
		a := a
		sc.Global.Eng.ScheduleAt(a.at, func() { a.apply(sc.Global.Net) })
	}
	// Hosts 0-3 are pod 0, hosts 4-7 pod 1; cross-pod pairs run on the
	// global domain.
	pairs := [][][2]int{
		{{0, 4}, {5, 1}, {2, 7}, {6, 3}},
		{{0, 2}, {1, 3}, {3, 0}},
		{{4, 6}, {5, 7}, {7, 4}},
	}
	var paths []*netsim.Hasher
	for i, d := range domains {
		paths = append(paths, connTraffic(t, d.Eng, establishPairs(t, d.Net, pairs[i]), horizon))
	}
	if err := st.Start(8); err != nil {
		t.Fatal(err)
	}
	sc.Run()
	var out []domainResult
	for i, d := range domains {
		out = append(out, resultOf(t, d.Net, paths[i]))
	}
	return out
}

// TestRouteCacheMatchesWalkSharded is TestRouteCacheMatchesWalk on the
// sharded engine, where the pod shards and the global domain share one
// topology: a pod's failure must invalidate the global domain's caches
// although the global router never notes it.
func TestRouteCacheMatchesWalkSharded(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			requireSameRuns(t, runShardedSchedule(t, seed, false), runShardedSchedule(t, seed, true))
		})
	}
}
