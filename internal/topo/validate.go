package topo

import "fmt"

// Validate checks the wiring invariants of a topology against its blueprint,
// playing the role of the INT-probe based checks the paper uses to eradicate
// wiring mistakes before end-to-end testing (§10). It returns all
// violations found, or nil when the build matches the blueprint.
func (t *Topology) Validate() []error {
	var errs []error
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	// Link symmetry: every link's reverse points back, same capacity.
	for _, l := range t.Links {
		r := t.Links[l.Reverse]
		if r.Reverse != l.ID {
			report("link %d: reverse %d does not point back", l.ID, r.ID)
		}
		if r.From != l.To || r.To != l.From {
			report("link %d: reverse endpoints mismatched", l.ID)
		}
		//hpnlint:allow floateq -- capacities are assigned constants, never computed; asymmetry means a builder bug
		if r.CapBps != l.CapBps {
			report("link %d: asymmetric capacity", l.ID)
		}
		if r.Plane != l.Plane {
			report("link %d: plane mismatch with reverse", l.ID)
		}
	}

	// Port uniqueness per node: no two links may share a physical port.
	type portKey struct {
		n NodeID
		p int
	}
	seen := map[portKey]LinkID{}
	for _, l := range t.Links {
		k := portKey{l.From, l.FromPort}
		if prev, dup := seen[k]; dup && t.Links[prev].Reverse != l.ID {
			report("node %d port %d wired twice (links %d, %d)", l.From, l.FromPort, prev, l.ID)
		}
		seen[k] = l.ID
	}

	// Hosts: every NIC port terminates on a ToR; under rail optimization
	// the ToR's rail matches the NIC's rail; port index matches the ToR's
	// dual-ToR index.
	for hi, h := range t.Hosts {
		for ni, nic := range h.NICs {
			for pi, lk := range nic.Ports {
				l := t.Links[lk]
				tor := t.Nodes[l.To]
				if tor.Kind != KindToR {
					report("host %d nic %d port %d lands on %s, want tor", hi, ni, pi, tor.Kind)
					continue
				}
				if tor.Rail >= 0 && tor.Rail != nic.Rail {
					report("host %d nic %d (rail %d) wired to ToR of rail %d", hi, ni, nic.Rail, tor.Rail)
				}
				if tor.Index != pi {
					report("host %d nic %d port %d wired to ToR index %d", hi, ni, pi, tor.Index)
				}
				if tor.Pod != h.Pod || tor.Segment != h.Segment {
					report("host %d wired outside its segment", hi)
				}
				hp, ok := t.hostOfLink[l.Reverse]
				if !ok || hp.Host != hi || hp.NIC != ni || hp.Port != pi {
					report("host %d nic %d port %d: downlink registry mismatch", hi, ni, pi)
				}
			}
		}
	}

	// Plane discipline: a ToR's uplinks terminate only on Aggs of its
	// plane; an Agg's uplinks terminate only on Cores of its plane. This is
	// the structural invariant behind "traffic from port 0 is received only
	// by port 0 of the destination NIC".
	for _, n := range t.Nodes {
		switch n.Kind {
		case KindToR:
			for _, lk := range n.Uplinks {
				agg := t.Nodes[t.Links[lk].To]
				if agg.Kind != KindAgg {
					report("tor %s uplink to %s", n.Name, agg.Kind)
				}
				if t.Planes > 1 && agg.Plane != n.Plane {
					report("tor %s (plane %d) uplinked to agg %s (plane %d)", n.Name, n.Plane, agg.Name, agg.Plane)
				}
				if agg.Pod != n.Pod {
					report("tor %s uplinked outside its pod", n.Name)
				}
			}
		case KindAgg:
			for _, lk := range n.Uplinks {
				core := t.Nodes[t.Links[lk].To]
				if core.Kind != KindCore {
					report("agg %s uplink to %s", n.Name, core.Kind)
				}
				if t.Planes > 1 && core.Plane != n.Plane {
					report("agg %s (plane %d) uplinked to core plane %d", n.Name, n.Plane, core.Plane)
				}
			}
		}
	}
	return errs
}
