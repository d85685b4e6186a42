package inband

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"hpn/internal/hashing"
)

// This file is the offline half of the in-band telemetry: the fabric
// forensics cmd/hpnview runs over a collected record stream. Everything
// works from []Record alone (typically via ParseTSV) — no topology object
// is needed, because records carry link names, tiers and hash parameters.

// LinkUsage aggregates one link's observed traffic across all flows.
type LinkUsage struct {
	Link  int
	Name  string
	Tier  string
	Bits  float64
	Queue float64 // byte-seconds of queue residency, summed over flows
	Flows []int64 // distinct flows observed on the link, ascending
}

// LinkUsageTable folds records into per-link usage, ordered by link ID.
func LinkUsageTable(recs []Record) []LinkUsage {
	idx := map[int]*LinkUsage{}
	flows := map[int]map[int64]bool{}
	for i := range recs {
		r := &recs[i]
		u := idx[r.Link]
		if u == nil {
			u = &LinkUsage{Link: r.Link, Name: r.Name, Tier: r.Tier}
			idx[r.Link] = u
			flows[r.Link] = map[int64]bool{}
		}
		u.Bits += r.Bits
		u.Queue += r.QueueByteS
		flows[r.Link][r.Flow] = true
	}
	ids := make([]int, 0, len(idx))
	for id := range idx {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]LinkUsage, 0, len(ids))
	for _, id := range ids {
		u := idx[id]
		fs := make([]int64, 0, len(flows[id]))
		for f := range flows[id] {
			fs = append(fs, f)
		}
		sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })
		u.Flows = fs
		out = append(out, *u)
	}
	return out
}

// WriteHeatmapCSV renders the tier × link utilization matrix: one row per
// tier, one column per link slot (links of the tier in ascending link-ID
// order), cell = gigabits attributed to that link. A legend row block
// below the matrix maps each (tier, slot) back to the link name, so the
// matrix stays numeric and plottable while remaining self-describing.
func WriteHeatmapCSV(w io.Writer, usage []LinkUsage) error {
	tiers := map[string][]LinkUsage{}
	for _, u := range usage {
		tiers[u.Tier] = append(tiers[u.Tier], u)
	}
	names := make([]string, 0, len(tiers))
	width := 0
	for t, links := range tiers {
		names = append(names, t)
		if len(links) > width {
			width = len(links)
		}
	}
	sort.Strings(names)

	var b strings.Builder
	b.WriteString("tier")
	for i := 0; i < width; i++ {
		fmt.Fprintf(&b, ",l%d", i)
	}
	b.WriteByte('\n')
	for _, t := range names {
		b.WriteString(t)
		links := tiers[t]
		for i := 0; i < width; i++ {
			b.WriteByte(',')
			if i < len(links) {
				b.WriteString(strconv.FormatFloat(links[i].Bits/1e9, 'g', -1, 64))
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString("\nlegend_tier,slot,link,name\n")
	for _, t := range names {
		for i, u := range tiers[t] {
			fmt.Fprintf(&b, "%s,%d,%d,%s\n", t, i, u.Link, u.Name)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// TopContended returns the k most contended links — ranked by queue
// residency, then attributed bits, then link ID — with the flow sets that
// collided there. Links that never queued and carried a single flow are
// not contended and are skipped.
func TopContended(usage []LinkUsage, k int) []LinkUsage {
	cand := make([]LinkUsage, 0, len(usage))
	for _, u := range usage {
		if u.Queue > 0 || len(u.Flows) > 1 {
			cand = append(cand, u)
		}
	}
	sort.Slice(cand, func(i, j int) bool {
		a, b := cand[i], cand[j]
		if a.Queue > b.Queue {
			return true
		}
		if a.Queue < b.Queue {
			return false
		}
		if a.Bits > b.Bits {
			return true
		}
		if a.Bits < b.Bits {
			return false
		}
		return a.Link < b.Link
	})
	if k > 0 && len(cand) > k {
		cand = cand[:k]
	}
	return cand
}

// GroupImbalance is the observed-path load picture of one ECMP group: how
// the flows that traversed a switch's group of a given size actually
// spread over its buckets.
type GroupImbalance struct {
	Node    string
	Group   int   // group size
	Counts  []int // observations per bucket
	Total   int
	Ratio   float64 // hashing.Imbalance: max/mean (1.0 = perfectly even)
	PerPort bool
	Down    bool // group pointed toward the hosts
}

// ECMPImbalance folds hashed hops into per-(node, group-size) bucket
// histograms and scores each with hashing.Imbalance — the observed-path
// counterpart of the paper's Figure 13 ECMP skew. Fallback picks are
// excluded (they are failure handling, not steady-state hashing). Results
// are ordered by node name, then group size.
func ECMPImbalance(recs []Record) []GroupImbalance {
	type key struct {
		node    string
		group   int
		perPort bool
		down    bool
	}
	hist := map[key][]int{}
	for i := range recs {
		r := &recs[i]
		if !r.Hashed || r.Fallback || r.Group <= 0 || r.Bucket < 0 || r.Bucket >= r.Group {
			continue
		}
		k := key{r.Node, r.Group, r.PerPort, r.Down}
		if hist[k] == nil {
			hist[k] = make([]int, r.Group)
		}
		hist[k][r.Bucket]++
	}
	keys := make([]key, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].node != keys[j].node {
			return keys[i].node < keys[j].node
		}
		if keys[i].group != keys[j].group {
			return keys[i].group < keys[j].group
		}
		if keys[i].down != keys[j].down {
			return !keys[i].down
		}
		return !keys[i].perPort && keys[j].perPort
	})
	out := make([]GroupImbalance, 0, len(keys))
	for _, k := range keys {
		counts := hist[k]
		total := 0
		for _, c := range counts {
			total += c
		}
		out = append(out, GroupImbalance{
			Node: k.node, Group: k.group, Counts: counts, Total: total,
			Ratio: hashing.Imbalance(counts), PerPort: k.perPort, Down: k.down,
		})
	}
	return out
}

// StagePair is the polarization picture of one consecutive pair of ECMP
// stages: the joint distribution of (upstream bucket, downstream bucket)
// over every flow path that traversed switch A then switch B.
type StagePair struct {
	NodeA, NodeB   string
	GroupA, GroupB int
	// Counts[a][b] distinct 5-tuples observed taking upstream bucket a
	// then downstream bucket b (repeat traversals of one connection are
	// deduplicated).
	Counts [][]int
	Total  int
	// Score is the mean conditional bucket coverage: for each upstream
	// bucket with >= 2 observations, the distinct downstream buckets used
	// divided by the most that could have been used (min(GroupB, mass)),
	// weighted by mass. Independent hash functions score near 1; a
	// polarized (shared-seed) cascade collapses each row onto one
	// downstream bucket and scores ~1/GroupB.
	Score float64
	// Conditioned is the observation mass behind Score (rows with >= 2).
	Conditioned int
}

// Polarized applies the detection threshold: a stage pair with enough
// conditioned mass whose downstream choices are degenerate given the
// upstream bucket.
func (p *StagePair) Polarized() bool {
	return p.Conditioned >= polarizationMinMass && p.GroupB >= 2 && p.Score < polarizationThreshold
}

const (
	// polarizationThreshold separates degenerate conditional coverage
	// (shared seeds: exactly 1/min(GroupB, mass) <= 0.5) from independent
	// hashing (expected coverage >= 1 - 1/(2*GroupB) >= 0.75 at mass 2,
	// higher at larger mass).
	polarizationThreshold = 0.6
	// polarizationMinMass is the minimum conditioned observation count
	// before a verdict is offered; below it the coverage estimate is noise.
	polarizationMinMass = 8
)

// DetectPolarization reconstructs consecutive hashed stages from flow
// paths and scores each (switch A, switch B) cascade for hash
// polarization. Per-port hops are excluded: the §7 engineered rotation is
// deliberately non-uniform per tuple and must not count as "degenerate".
// Results are ordered by (NodeA, NodeB, GroupA, GroupB).
func DetectPolarization(recs []Record) []StagePair {
	// Group records by (flow, epoch), ordered by sequence, then walk
	// consecutive hashed hops.
	type fkey struct {
		flow  int64
		epoch int
	}
	bySeq := map[fkey][]*Record{}
	for i := range recs {
		r := &recs[i]
		if !r.Hashed || r.PerPort || r.Fallback || r.Group <= 0 {
			continue
		}
		k := fkey{r.Flow, r.Epoch}
		bySeq[k] = append(bySeq[k], r)
	}
	type pkey struct {
		nodeA, nodeB   string
		groupA, groupB int
	}
	pairs := map[pkey][][]int{}
	// One long-lived connection re-routed or re-observed across many sends
	// always hashes identically; counting it repeatedly would make ANY
	// deployment look degenerate. Each distinct hash input (5-tuple) counts
	// once per cell — the unit of evidence about the hash functions.
	type seenKey struct {
		pk               pkey
		tuple            uint64
		bucketA, bucketB int
	}
	seen := map[seenKey]bool{}
	// Map iteration feeds only the order-independent pair histograms;
	// each path's records were appended in record order and re-sorted by
	// Seq, and the dedup key includes the cell, so counts are a pure
	// reduction whatever order the paths are walked in.
	for _, hops := range bySeq {
		sort.Slice(hops, func(i, j int) bool { return hops[i].Seq < hops[j].Seq })
		for i := 0; i+1 < len(hops); i++ {
			a, b := hops[i], hops[i+1]
			if b.Seq != a.Seq+1 {
				continue // non-adjacent stages (unhashed hop between)
			}
			k := pkey{a.Node, b.Node, a.Group, b.Group}
			sk := seenKey{k, a.Tuple, a.Bucket, b.Bucket}
			if seen[sk] {
				continue
			}
			seen[sk] = true
			m := pairs[k]
			if m == nil {
				m = make([][]int, a.Group)
				for r := range m {
					m[r] = make([]int, b.Group)
				}
				pairs[k] = m
			}
			if a.Bucket < a.Group && b.Bucket < b.Group {
				m[a.Bucket][b.Bucket]++
			}
		}
	}
	keys := make([]pkey, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.nodeA != b.nodeA {
			return a.nodeA < b.nodeA
		}
		if a.nodeB != b.nodeB {
			return a.nodeB < b.nodeB
		}
		if a.groupA != b.groupA {
			return a.groupA < b.groupA
		}
		return a.groupB < b.groupB
	})
	out := make([]StagePair, 0, len(keys))
	for _, k := range keys {
		m := pairs[k]
		sp := StagePair{NodeA: k.nodeA, NodeB: k.nodeB, GroupA: k.groupA, GroupB: k.groupB, Counts: m}
		var weighted float64
		for _, row := range m {
			mass, distinct := 0, 0
			for _, c := range row {
				mass += c
				if c > 0 {
					distinct++
				}
			}
			sp.Total += mass
			if mass < 2 {
				continue // one observation always covers exactly one bucket
			}
			denom := k.groupB
			if mass < denom {
				denom = mass
			}
			weighted += float64(mass) * float64(distinct) / float64(denom)
			sp.Conditioned += mass
		}
		if sp.Conditioned > 0 {
			sp.Score = weighted / float64(sp.Conditioned)
		}
		out = append(out, sp)
	}
	return out
}
