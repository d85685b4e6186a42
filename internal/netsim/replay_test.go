package netsim

import (
	"testing"

	"hpn/internal/route"
	"hpn/internal/telemetry"
)

func TestHasher(t *testing.T) {
	a, b := NewHasher(), NewHasher()
	for _, v := range []uint64{1, 2, 3} {
		a.Mix(v)
		b.Mix(v)
	}
	if a.Sum() != b.Sum() {
		t.Fatal("identical mix sequences hash differently")
	}
	c := NewHasher()
	for _, v := range []uint64{3, 2, 1} {
		c.Mix(v)
	}
	if c.Sum() == a.Sum() {
		t.Fatal("hash is order-insensitive; schedule permutations would collide")
	}
}

// A replay lands on ApplyExit once per iteration, so it must not allocate:
// a long memoized run replays thousands of windows.
func TestApplyExitAllocatesNothing(t *testing.T) {
	eng, _, s := newSim(t, 1, 4, 4)
	reg := telemetry.NewRegistry()
	s.AttachTelemetry(nil, reg, "")
	s.EnableInband(0)
	m, ok := s.Mark()
	if !ok {
		t.Fatal("idle simulator refused a mark")
	}
	base := reg.Values(nil)
	for src := 0; src < 2; src++ {
		if _, err := s.StartFlow(route.Endpoint{Host: src, NIC: 0}, route.Endpoint{Host: 2, NIC: 0},
			1<<20, FlowOpts{SrcPort: 0, Sport: uint16(1000 + src)}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	moved := reg.Values(nil)
	for i, v := range base {
		moved[i] -= v
	}
	x := s.ExitFrom(m, moved)
	if x == nil {
		t.Fatal("drained window refused its exit")
	}
	if len(x.residual) == 0 {
		t.Fatal("incast left no in-band residual: the restore path is untested")
	}
	if n := testing.AllocsPerRun(100, func() { s.ApplyExit(x) }); n != 0 {
		t.Fatalf("ApplyExit allocates %v objects per call, want 0", n)
	}
}
