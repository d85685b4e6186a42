package hpn

import (
	"slices"
	"strings"
	"testing"

	"hpn/internal/metrics"
	"hpn/internal/sim"
)

// A replayed memo window appends no link-probe samples, so memo must
// neither record nor replay while a probe is attached: a probed NIC cable
// records the same series with memo on as with memo off.
func TestMemoKeepsProbeSeries(t *testing.T) {
	series := func(memoOn bool) (util, queue []metrics.Point) {
		cfg := SmallHPN(1, 8, 8)
		r, err := Scenario{HPN: &cfg, Model: LLaMa13B, TP: 8, PP: 1, Hosts: 8, Iterations: 12,
			Telemetry: &TelemetryOptions{Memo: memoOn}}.Build()
		if err != nil {
			t.Fatal(err)
		}
		c := r.Cluster
		p := c.Net.TrackLink(c.Topo.AccessLink(r.Trainer.Job.Hosts[0], 0, 0))
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		return p.Util.Points, p.Queue.Points
	}
	offUtil, offQueue := series(false)
	onUtil, onQueue := series(true)
	if len(offUtil) == 0 {
		t.Fatal("the probe recorded nothing: the case tests nothing")
	}
	if !slices.Equal(onUtil, offUtil) || !slices.Equal(onQueue, offQueue) {
		t.Errorf("memo on recorded %d Util and %d Queue points, memo off %d and %d, or their values differ",
			len(onUtil), len(onQueue), len(offUtil), len(offQueue))
	}
}

// Build turns a placement or a fault schedule that would run wrong, or
// would index past the fabric, into an error instead of a silent mis-run
// or a panic.
func TestScenarioBuildRejects(t *testing.T) {
	const ms = sim.Millisecond
	cfg := SmallHPN(1, 8, 8) // hosts 0..7, 8 NICs, 2 ports each
	backup := SmallHPN(1, 8, 8)
	backup.BackupHostsPerSegment = 1 // host 8 is the segment's backup
	single := SmallHPN(1, 8, 8)
	single.DualToR, single.DualPlane = false, false // one port per NIC
	for _, c := range []struct {
		name      string
		fabric    *HPNConfig
		placement []int
		fault     LinkFault
		want      string
	}{
		{"recover before fail", &cfg, nil, LinkFault{FailAt: 50 * ms, RecoverAt: 10 * ms}, "RecoverAt must follow"},
		{"recover at fail", &cfg, nil, LinkFault{FailAt: 50 * ms, RecoverAt: 50 * ms}, "RecoverAt must follow"},
		{"flaps with recover", &cfg, nil, LinkFault{FailAt: 10 * ms, RecoverAt: 90 * ms, Flaps: 2}, "no RecoverAt"},
		{"negative fail", &cfg, nil, LinkFault{FailAt: -ms}, "negative"},
		{"negative recover", &cfg, nil, LinkFault{FailAt: 10 * ms, RecoverAt: -ms}, "negative"},
		{"negative flaps", &cfg, nil, LinkFault{FailAt: 10 * ms, Flaps: -1}, "negative"},
		{"fault host past fabric", &cfg, nil, LinkFault{Host: 8, FailAt: 10 * ms}, "no such access cable"},
		{"negative fault host", &cfg, nil, LinkFault{Host: -1, FailAt: 10 * ms}, "no such access cable"},
		{"fault NIC past host", &cfg, nil, LinkFault{NIC: 8, FailAt: 10 * ms}, "no such access cable"},
		{"fault port past NIC", &cfg, nil, LinkFault{Port: 2, FailAt: 10 * ms}, "no such access cable"},
		{"second port on single ToR", &single, nil, LinkFault{Port: 1, FailAt: 10 * ms}, "no such access cable"},
		{"placement too short", &cfg, []int{0, 1, 2, 3, 4, 5, 6}, LinkFault{}, "7 hosts provided, need 8"},
		{"placement repeats a host", &cfg, []int{0, 1, 2, 3, 4, 5, 6, 6}, LinkFault{}, "twice"},
		{"placement past fabric", &cfg, []int{0, 1, 2, 3, 4, 5, 6, 8}, LinkFault{}, "not an active host"},
		{"negative placement", &cfg, []int{-1, 1, 2, 3, 4, 5, 6, 7}, LinkFault{}, "not an active host"},
		{"placement on a backup", &backup, []int{0, 1, 2, 3, 4, 5, 6, 8}, LinkFault{}, "not an active host"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := Scenario{HPN: c.fabric, Model: LLaMa13B, TP: 8, PP: 1, Hosts: 8, Iterations: 1,
				Placement: c.placement, Faults: []LinkFault{c.fault}}
			if _, err := s.Build(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Build() error = %v, want one containing %q", err, c.want)
			}
		})
	}
}

// sec7 states its stage interleave once, for both fabrics; it must equal
// the interleave of the segment-first order PlaceJob gives each. The
// cross-pod placement then spans both pods on one engine.
func TestSec7PlacementInterleavesSegmentFirstOrder(t *testing.T) {
	for _, scale := range []Scale{ScaleQuick, ScaleFull} {
		cross, ref := sec7Scenarios(scale)
		for _, s := range []Scenario{cross, ref} {
			c, err := NewHPN(*s.HPN)
			if err != nil {
				t.Fatal(err)
			}
			all, err := c.PlaceJob(s.Hosts)
			if err != nil {
				t.Fatal(err)
			}
			half := s.Hosts / 2
			var want []int
			for i := 0; i < half; i++ {
				want = append(want, all[i], all[half+i])
			}
			if !slices.Equal(s.Placement, want) {
				t.Errorf("scale %d: placement %v, want the segment-first interleave %v", scale, s.Placement, want)
			}
		}
	}

	cross, _ := sec7Scenarios(ScaleQuick)
	cross.Horizon = sim.Second // a horizon needs one engine, which a placed run has
	r, err := cross.Build()
	if err != nil {
		t.Fatal(err)
	}
	if r.Cluster == nil || r.Sharded != nil {
		t.Fatalf("a placed two-pod run built Cluster %v, Sharded %v; want one engine", r.Cluster, r.Sharded)
	}
	if h := r.Cluster.Topo.Hosts; h[cross.Placement[0]].Pod == h[cross.Placement[1]].Pod {
		t.Fatalf("placement %v does not span both pods", cross.Placement)
	}
}

// A run joins exactly one hub: Telemetry options, Memo alone included,
// give it a hub of its own with the recorder attached, and a scenario
// built on a hub it is handed may not ask for one of its own as well.
func TestScenarioJoinsOneHub(t *testing.T) {
	cfg := SmallHPN(1, 8, 8)
	s := Scenario{HPN: &cfg, Model: LLaMa13B, TP: 8, PP: 1, Hosts: 8, Iterations: 1,
		Telemetry: &TelemetryOptions{Memo: true}}
	r, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if r.Hub == nil || MemoRecorderOf(r.Cluster) == nil {
		t.Errorf("a Memo-only scenario built hub %v and recorder %v; want both", r.Hub, MemoRecorderOf(r.Cluster))
	}
	if _, err := s.build(NewTelemetryHub(DefaultTelemetryOptions())); err == nil ||
		!strings.Contains(err.Error(), "takes no Telemetry options") {
		t.Errorf("build on a hub with Telemetry set: error %v, want a rejection", err)
	}
}
