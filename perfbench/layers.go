package main

import (
	"fmt"
	"sort"
	"strings"

	"hpn"
	"hpn/internal/memo"
	"hpn/internal/prof"
)

// phases indexes a profiler's snapshot by phase name (empty for nil).
func phases(p *prof.Profiler) map[string]prof.PhaseStat {
	out := map[string]prof.PhaseStat{}
	for _, st := range p.Snapshot() {
		out[st.Name] = st
	}
	return out
}

func wallS(ps map[string]prof.PhaseStat, name string) float64 {
	return float64(ps[name].WallNS) / 1e9
}

// selfTimes splits the bench's run span into self time per layer. The
// parent map is:
//
//	bench run        ⊃ sim/run, sim/window_sync, sim/mailbox_exchange
//	sim/window_sync  ⊃ the pods' sim/run
//	sim/run          ⊃ netsim/recompute, memo/lookup, memo/replay
//	netsim/recompute ⊃ netsim/decompose, netsim/fill
//	netsim/fill      ⊃ netsim/merge_wait
//
// Up to workers pods run at once inside a window, so each pod second
// counts 1/workers of a window second (less, if the pods' summed time
// would otherwise exceed the windows'); what is left of the window time is
// the barrier's own: waiting for the slowest pod and joining. The self
// times then sum to the run span exactly, and a negative self time means
// the map above is wrong.
func selfTimes(runS float64, workers int, global, pods map[string]prof.PhaseStat) map[string]float64 {
	window := wallS(global, "sim/window_sync")
	podRun := wallS(pods, "sim/run")
	scale := 1 / float64(workers)
	if podRun*scale > window {
		scale = window / podRun
	}
	self := map[string]float64{}
	for _, part := range []struct {
		ps map[string]prof.PhaseStat
		k  float64
	}{{global, 1}, {pods, scale}} {
		ps, k := part.ps, part.k
		run := wallS(ps, "sim/run")
		rc := wallS(ps, "netsim/recompute")
		dec := wallS(ps, "netsim/decompose")
		fill := wallS(ps, "netsim/fill")
		mw := wallS(ps, "netsim/merge_wait")
		ml := wallS(ps, "memo/lookup")
		mr := wallS(ps, "memo/replay")
		self["sim.run"] += k * (run - rc - ml - mr)
		self["netsim.recompute"] += k * (rc - dec - fill)
		self["netsim.decompose"] += k * dec
		self["netsim.fill"] += k * (fill - mw)
		self["netsim.merge_wait"] += k * mw
		self["memo.lookup"] += k * ml
		self["memo.replay"] += k * mr
	}
	self["sim.window_sync"] = window - podRun*scale
	self["sim.mailbox_exchange"] = wallS(global, "sim/mailbox_exchange")
	self["bench.run"] = runS - wallS(global, "sim/run") - window - self["sim.mailbox_exchange"]
	return self
}

// checkAttribution fails when the positive self times do not sum to the
// run span within 5%, which happens only when a phase is not nested the
// way selfTimes assumes.
func checkAttribution(runS float64, self map[string]float64) error {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	sum := 0.0
	for _, n := range names {
		if v := self[n]; v > 0 {
			sum += v
		}
	}
	if runS <= 0 || sum > runS*1.05 || sum < runS*0.95 {
		return fmt.Errorf("layer self times sum to %.6gs but the run span is %.6gs", sum, runS)
	}
	return nil
}

func sumCounts(name string, ps ...map[string]prof.PhaseStat) float64 {
	n := int64(0)
	for _, p := range ps {
		n += p[name].Count
	}
	return float64(n)
}

// artifactFiles are the artifacts reported one by one, as shares of
// total_s.
var artifactFiles = []string{"trace.json", "samples.csv", "inband.tsv", "inband.json", "incidents.tsv", "incidents.json"}

// layers derives the traced rep's per-layer metrics. The ratios that need
// untraced reps (speedups, overheads, the iteration tail) are added by
// tracePass.
func (r *rep) layers() (map[string]float64, error) {
	global, pods := phases(r.prof), phases(r.shardProf)
	runS := r.spans["run"].Seconds()
	self := selfTimes(runS, r.workers, global, pods)
	if err := checkAttribution(runS, self); err != nil {
		return nil, err
	}
	fp := r.out.Fingerprint
	events := float64(fp.Events)
	flows := float64(fp.Flows)
	recomputes := sumCounts("netsim/recompute", global, pods)
	m := map[string]float64{
		"setup.topo_s":               r.spans["setup.topo"].Seconds(),
		"setup.cluster_s":            (r.spans["setup.cluster"] - r.spans["setup.topo"]).Seconds(),
		"setup.job_s":                r.spans["setup.job"].Seconds(),
		"sim.events":                 events,
		"sim.run.self_s":             self["sim.run"],
		"sim.ns_per_event":           self["sim.run"] * 1e9 / events,
		"sim.allocs_per_event":       float64(r.runObjs) / events,
		"sim.windows":                float64(fp.Windows),
		"sim.window_sync.share":      self["sim.window_sync"] / runS,
		"netsim.flows":               flows,
		"netsim.recomputes":          recomputes,
		"netsim.recompute.self_s":    self["netsim.recompute"],
		"netsim.decompose_s":         self["netsim.decompose"],
		"netsim.fill.self_s":         self["netsim.fill"],
		"netsim.merge_wait.share":    self["netsim.merge_wait"] / runS,
		"netsim.heap_ops":            sumCounts("netsim/heap_ops", global, pods),
		"netsim.recomputes_per_flow": recomputes / flows,
		"netsim.reroutes":            hpn.MetricSum(r.hub, "netsim_reroute_passes_total"),
		"netsim.topology_events":     hpn.MetricSum(r.hub, "netsim_topology_events_total"),
		"memo.lookups":               sumCounts("memo/lookup", global, pods),
		"memo.lookup.share":          self["memo.lookup"] / runS,
		"memo.replay.share":          self["memo.replay"] / runS,
		"telemetry.trace_events":     float64(r.hub.Tracer.Events()),
		"telemetry.trace_dropped":    float64(r.hub.Tracer.Dropped()),
		"health.incidents":           float64(fp.Incidents),
		"artifact.bytes":             float64(r.artBytes),
		"artifact.share":             r.out.ArtifactS / r.out.TotalS,
		"bench.run.self.share":       self["bench.run"] / runS,
	}
	if recomputes > 0 {
		m["netsim.us_per_recompute"] = (wallS(global, "netsim/recompute") + wallS(pods, "netsim/recompute")) * 1e6 / recomputes
	}
	if r.coord != nil {
		m["sim.mailbox_posts"] = float64(r.coord.Exchanged)
		if w := wallS(global, "sim/window_sync"); w > 0 {
			m["sim.shard_busy_frac"] = wallS(pods, "sim/run") / (float64(r.workers) * w)
		}
	}
	var st hpn.MemoStats
	for _, n := range r.nets {
		s := memo.RecorderOf(n).Stats()
		st.Replayed += s.Replayed
		st.Misses += s.Misses
		st.Blocked += s.Blocked
		st.Invalidations += s.Invalidations
		if ib := n.Inband(); ib != nil {
			m["inband.records"] += float64(len(ib.Records()))
			m["inband.dropped"] += float64(ib.Dropped())
		}
	}
	m["memo.replayed"] = float64(st.Replayed)
	m["memo.misses"] = float64(st.Misses)
	m["memo.blocked"] = float64(st.Blocked)
	m["memo.invalidations"] = float64(st.Invalidations)
	m["memo.replay_ratio"] = float64(st.Replayed) / float64(fp.Iterations)
	for _, f := range artifactFiles {
		key := "artifact." + strings.ReplaceAll(f, ".", "_") + ".share"
		w := wallS(global, "artifact/"+f)
		if f == "trace.json" {
			w = r.spans["artifact.trace_json"].Seconds()
		}
		m[key] = w / r.out.TotalS
	}
	return m, nil
}
