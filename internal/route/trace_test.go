package route

import (
	"errors"
	"strings"
	"testing"

	"hpn/internal/topo"
)

func TestTraceCrossSegment(t *testing.T) {
	top, r := buildSmall(t, 2, 4, 4)
	src, dst := Endpoint{0, 2}, Endpoint{4, 2}
	tu := tupleFor(src, dst, 1000)
	hops, err := r.Trace(src, dst, 1, tu, 0)
	if err != nil {
		t.Fatal(err)
	}
	// host -> ToR -> Agg -> ToR -> host: 5 hop records.
	if len(hops) != 5 {
		t.Fatalf("hops = %d, want 5", len(hops))
	}
	wantKinds := []topo.Kind{topo.KindHost, topo.KindToR, topo.KindAgg, topo.KindToR, topo.KindHost}
	for i, h := range hops {
		if h.Kind != wantKinds[i] {
			t.Fatalf("hop %d kind %v, want %v", i, h.Kind, wantKinds[i])
		}
		if h.Plane != 1 {
			t.Fatalf("hop %d plane %d, want 1 (entered on port 1)", i, h.Plane)
		}
	}
	if hops[0].IngressPort != -1 || hops[len(hops)-1].EgressPort != -1 {
		t.Fatal("terminal port markers wrong")
	}
	// Adjacent hops' ports must correspond to real links.
	for i := 0; i < len(hops)-1; i++ {
		l := top.Link(hops[i].Egress)
		if l.From != hops[i].Node || l.To != hops[i+1].Node {
			t.Fatalf("hop %d egress link does not connect to hop %d", i, i+1)
		}
		if l.ToPort != hops[i+1].IngressPort {
			t.Fatalf("hop %d ingress port mismatch", i+1)
		}
	}
	out := FormatTrace(hops)
	if !strings.Contains(out, "tor-") || !strings.Contains(out, "agg-") {
		t.Fatalf("formatted trace missing hops:\n%s", out)
	}
}

func TestTraceBlackholeReported(t *testing.T) {
	top, r := buildSmall(t, 2, 4, 4)
	src, dst := Endpoint{0, 0}, Endpoint{4, 0}
	dead := top.AccessLink(dst.Host, dst.NIC, 0)
	top.SetCableState(dead, false)
	r.NoteLinkFailed(dead, 0)
	// Pre-convergence, plane-0 traces blackhole.
	if _, err := r.Trace(src, dst, 0, tupleFor(src, dst, 7), 1); err == nil {
		t.Fatal("blackholed trace reported success")
	}
}

// Trace takes its endpoints from user input (hpntopo -trace), so a host,
// NIC or port outside the topology is an error, not an index panic.
func TestTraceRejectsOutOfRangeEndpoints(t *testing.T) {
	top, r := buildSmall(t, 2, 4, 4)
	cases := []struct {
		name     string
		src, dst Endpoint
		port     int
	}{
		{"src port", Endpoint{0, 0}, Endpoint{1, 0}, 9},
		{"negative src port", Endpoint{0, 0}, Endpoint{1, 0}, -1},
		{"src nic", Endpoint{0, 9}, Endpoint{1, 0}, 0},
		{"dst nic", Endpoint{0, 0}, Endpoint{1, 99}, 0},
		{"src host", Endpoint{len(top.Hosts), 0}, Endpoint{1, 0}, 0},
		{"negative src host", Endpoint{-1, 0}, Endpoint{1, 0}, 0},
		{"dst host", Endpoint{0, 0}, Endpoint{999999, 0}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := r.Trace(tc.src, tc.dst, tc.port, tupleFor(tc.src, tc.dst, 7), 0)
			if !errors.Is(err, ErrNoEndpoint) {
				t.Fatalf("Trace(%v -> %v port %d) = %v, want ErrNoEndpoint", tc.src, tc.dst, tc.port, err)
			}
		})
	}
}
