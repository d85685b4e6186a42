package memo

import (
	"bytes"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hpn/internal/metrics"
	"hpn/internal/netsim"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/telemetry"
	"hpn/internal/topo"
)

// boundary is the simulator state at one iteration boundary: everything a
// replayed window's exit must land exactly where a simulated one would.
type boundary struct {
	hash                    uint64
	flows                   int64
	bits, aggBits, coreBits metrics.ExactSum
	// mark carries the next flow ID (and the cursors below) as netsim
	// holds them.
	mark           netsim.Mark
	now            sim.Time
	seq, processed uint64
	// metrics is the registry's Prometheus text without the recorder's
	// own lines and the histogram sums, which are held apart in sums.
	metrics string
	sums    []float64
}

// roundTrip drives iters iterations of a two-phase periodic workload on a
// fresh two-pod fabric with in-band telemetry on, through a memo recorder
// when memoOn, and returns the state at every iteration boundary. Each
// phase is an incast, which leaves in-band queue residue behind, plus one
// cross-pod flow, which moves the aggregation and core tallies. The two
// phases use different links, so a replayed window's exit residue differs
// from its entry residue, and the idle tail after the flows drain leaves
// the integration cursor short of the window's end.
func roundTrip(t *testing.T, iters int, memoOn bool) ([]boundary, Stats) {
	t.Helper()
	cfg := topo.SmallHPN(1, 4, 4)
	cfg.Pods = 2
	top, err := topo.BuildHPN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	s := netsim.New(eng, top)
	reg := telemetry.NewRegistry()
	s.AttachTelemetry(nil, reg, "")
	s.EnableInband(0)
	var r *Recorder
	if memoOn {
		r = Attach(s)
	}

	type flow struct{ src, dst route.Endpoint }
	phases := [2][]flow{
		{{route.Endpoint{Host: 0}, route.Endpoint{Host: 2}}, {route.Endpoint{Host: 1}, route.Endpoint{Host: 2}},
			{route.Endpoint{Host: 0, NIC: 1}, route.Endpoint{Host: 4, NIC: 1}}},
		{{route.Endpoint{Host: 1, NIC: 3}, route.Endpoint{Host: 3, NIC: 3}}, {route.Endpoint{Host: 2, NIC: 3}, route.Endpoint{Host: 3, NIC: 3}},
			{route.Endpoint{Host: 3, NIC: 5}, route.Endpoint{Host: 7, NIC: 5}}},
	}
	var out []boundary
	for i := 0; i < iters; i++ {
		phase := i % 2
		h := netsim.NewHasher()
		h.Mix(uint64(phase))
		h.Mix(s.StateHash64())
		fp := h.Sum()
		// The last iteration always simulates, as the trainer's does.
		if w := r.Lookup(fp); w != nil && i < iters-1 {
			r.Replay(w, nil)
		} else {
			r.BeginRecord(fp)
			for j, f := range phases[phase] {
				if _, err := s.StartFlow(f.src, f.dst, 4<<20,
					netsim.FlowOpts{SrcPort: 0, Sport: uint16(1000 + 10*phase + j)}); err != nil {
					t.Fatal(err)
				}
			}
			eng.Run()
			r.BeginLive(eng.Now(), 0)
			r.EndLive()
			eng.Schedule(sim.Millisecond, func() {})
			eng.Run()
			r.FinalizeRecord()
		}
		m, ok := s.Mark()
		if !ok {
			t.Fatalf("iteration %d ended with flows active", i)
		}
		b := boundary{
			hash: s.StateHash64(), flows: s.CompletedFlows,
			bits: s.CompletedBits, aggBits: s.AggBits, coreBits: s.CoreBits,
			mark: m, now: eng.Now(), seq: eng.Seq(), processed: eng.Processed,
		}
		b.metrics, b.sums = splitMetrics(t, reg)
		out = append(out, b)
	}
	return out, r.Stats()
}

// splitMetrics renders the registry as Prometheus text without the
// recorder's own metrics, which only the memo-on run has, and parses the
// histogram sums out of it. Replay reproduces the sums only to rounding:
// it adds a window's sum in one step, where a simulated window adds each
// observation.
func splitMetrics(t *testing.T, reg *telemetry.Registry) (string, []float64) {
	t.Helper()
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	var sums []float64
	for _, line := range strings.SplitAfter(prom.String(), "\n") {
		name, val, _ := strings.Cut(strings.TrimSpace(line), " ")
		switch {
		case strings.Contains(line, "memo_"):
		case strings.HasSuffix(name, "_sum"):
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatal(err)
			}
			sums = append(sums, v)
		default:
			b.WriteString(line)
		}
	}
	return b.String(), sums
}

// TestReplayExitRoundTrip checks a replayed window's exit state field by
// field against a simulated one at every iteration boundary: the state
// hash (in-band residue, integration cursor), the completed-flow tallies,
// the next flow ID, the engine cursors and the registry. The golden suite
// compares artifacts only, and some of this state reaches none.
func TestReplayExitRoundTrip(t *testing.T) {
	const iters = 12
	on, st := roundTrip(t, iters, true)
	off, _ := roundTrip(t, iters, false)
	t.Logf("memo stats: %+v", st)
	if st.Replayed < iters/2 {
		t.Fatalf("only %d of %d iterations replayed (%+v): the round trip is barely exercised", st.Replayed, iters, st)
	}
	for i := range on {
		a, b := on[i], off[i]
		if a.metrics != b.metrics {
			t.Errorf("iteration %d: metrics differ\nmemo on:\n%s\nmemo off:\n%s", i, a.metrics, b.metrics)
		}
		if len(a.sums) != len(b.sums) {
			t.Fatalf("iteration %d: %d histogram sums with memo on, %d off", i, len(a.sums), len(b.sums))
		}
		for k := range a.sums {
			if math.Abs(a.sums[k]-b.sums[k]) > 1e-12*math.Abs(b.sums[k]) {
				t.Errorf("iteration %d: histogram sum %d is %v with memo on, %v off", i, k, a.sums[k], b.sums[k])
			}
		}
		a.metrics, b.metrics, a.sums, b.sums = "", "", nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Errorf("iteration %d: boundary state differs\nmemo on:  %+v\nmemo off: %+v", i, a, b)
		}
	}
}
