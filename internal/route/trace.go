package route

import (
	"errors"
	"fmt"
	"strings"

	"hpn/internal/hashing"
	"hpn/internal/sim"
	"hpn/internal/telemetry"
	"hpn/internal/topo"
)

// Hop is one per-switch record of a traced path, mirroring what the
// paper's INT-based probes report (switchID and portID per hop, §10) to
// check deployments against the blueprint.
type Hop struct {
	Node        topo.NodeID
	Name        string
	Kind        topo.Kind
	Plane       int
	IngressPort int // -1 at the source host
	EgressPort  int
	Egress      topo.LinkID
}

// ErrNoEndpoint is the error Trace wraps when an endpoint or the source
// port does not exist in the topology.
var ErrNoEndpoint = errors.New("route: no such endpoint")

// Trace computes the path a flow takes and returns per-hop records
// including the physical port numbers — the software analogue of sending
// an INT probe. Unlike Path, it checks that both endpoints and the source
// port exist, so it is safe on endpoints read from user input.
func (r *Router) Trace(src, dst Endpoint, srcPort int, tuple hashing.FiveTuple, now sim.Time) ([]Hop, error) {
	ports, err := r.nicPorts(src)
	if err != nil {
		return nil, err
	}
	if srcPort < 0 || srcPort >= len(ports) {
		return nil, fmt.Errorf("%w: NIC %d:%d has no port %d (it has %d)", ErrNoEndpoint, src.Host, src.NIC, srcPort, len(ports))
	}
	if _, err := r.nicPorts(dst); err != nil {
		return nil, err
	}
	path, blackholed, err := r.Path(src, dst, srcPort, tuple, now)
	if err != nil {
		return nil, err
	}
	if blackholed {
		return nil, fmt.Errorf("route: path blackholes at hop %d", len(path))
	}
	hops := make([]Hop, 0, len(path))
	ingress := -1
	for _, lk := range path {
		l := r.T.Link(lk)
		from := r.T.Node(l.From)
		hops = append(hops, Hop{
			Node: from.ID, Name: from.Name, Kind: from.Kind, Plane: l.Plane,
			IngressPort: ingress, EgressPort: l.FromPort, Egress: lk,
		})
		ingress = l.ToPort
	}
	// Terminal record: the destination host's receiving port.
	last := r.T.Link(path[len(path)-1])
	dstNode := r.T.Node(last.To)
	hops = append(hops, Hop{
		Node: dstNode.ID, Name: dstNode.Name, Kind: dstNode.Kind, Plane: last.Plane,
		IngressPort: last.ToPort, EgressPort: -1, Egress: topo.None,
	})
	if r.Tracer != nil {
		r.Tracer.Instant(int64(now), "route", "int_probe", telemetry.TidRoute,
			telemetry.Arg{K: "src", V: fmt.Sprintf("%d:%d", src.Host, src.NIC)},
			telemetry.Arg{K: "dst", V: fmt.Sprintf("%d:%d", dst.Host, dst.NIC)},
			telemetry.Arg{K: "hops", V: len(hops)})
	}
	return hops, nil
}

// nicPorts returns the access links of e's NIC, or an error when the
// topology has no such host or NIC.
func (r *Router) nicPorts(e Endpoint) ([]topo.LinkID, error) {
	if e.Host < 0 || e.Host >= len(r.T.Hosts) {
		return nil, fmt.Errorf("%w: no host %d (the topology has %d)", ErrNoEndpoint, e.Host, len(r.T.Hosts))
	}
	nics := r.T.Hosts[e.Host].NICs
	if e.NIC < 0 || e.NIC >= len(nics) {
		return nil, fmt.Errorf("%w: host %d has no NIC %d (it has %d)", ErrNoEndpoint, e.Host, e.NIC, len(nics))
	}
	return nics[e.NIC].Ports, nil
}

// FormatTrace renders hops as one line per hop, hpntopo-style.
func FormatTrace(hops []Hop) string {
	var b strings.Builder
	for i, h := range hops {
		in, out := fmt.Sprint(h.IngressPort), fmt.Sprint(h.EgressPort)
		if h.IngressPort < 0 {
			in = "-"
		}
		if h.EgressPort < 0 {
			out = "-"
		}
		fmt.Fprintf(&b, "%2d  %-24s plane=%d in=%s out=%s\n", i, h.Name, h.Plane, in, out)
	}
	return b.String()
}
