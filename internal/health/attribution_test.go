package health

import (
	"runtime"
	"testing"
	"unsafe"

	"hpn/internal/collective"
	"hpn/internal/memo"
	"hpn/internal/netsim"
	"hpn/internal/sim"
	"hpn/internal/topo"
	"hpn/internal/workload"
)

// replayWindowAlloc trains 2n iterations with memo on, and the monitor
// when monitored, so that almost every iteration is a replay, and returns
// the exact heap bytes allocated over iterations n+1 to 2n (runtime.GC
// first flushes every cache's counts).
func replayWindowAlloc(t *testing.T, n int, monitored bool) uint64 {
	top, err := topo.BuildHPN(topo.SmallHPN(1, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(sim.New(), top)
	var m *Monitor
	if monitored {
		m = Attach(net)
	}
	rec := memo.Attach(net)
	job, err := workload.NewJob(workload.LLaMa13B, workload.Parallelism{TP: 8, PP: 1, DP: 8}, []int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.NewTrainer(net, job, collective.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if monitored {
		m.WatchTrainer(tr)
	}
	var at [2]uint64
	var ms runtime.MemStats
	prev := tr.OnIteration
	tr.OnIteration = func(iter int, now sim.Time) {
		if prev != nil {
			prev(iter, now)
		}
		if iter == n || iter == 2*n {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			at[iter/n-1] = ms.TotalAlloc
		}
	}
	if err := tr.Start(2 * n); err != nil {
		t.Fatal(err)
	}
	net.Eng.Run()
	if tr.Iterations != 2*n {
		t.Fatalf("trained %d iterations, want %d", tr.Iterations, 2*n)
	}
	if st := rec.Stats(); st.Replayed < int64(2*n-10) || st.Redelivered != 0 {
		t.Fatalf("memo stats %+v: want nearly every iteration replayed and folded", st)
	}
	return at[1] - at[0]
}

// TestReplayedIterationsAllocateTheirReports requires the monitor's share
// of the heap allocated over replayed iterations n+1 to 2n to stay within
// twice the report records they store: the records go into chunks that
// double and are never copied, so a window that doubles the report count
// allocates at most one chunk of up to that many records again. Reports
// kept in a slice re-copied as it grows, or in full 88-byte form,
// allocate more than that, and the extra heap they leave moves the
// garbage collector's first cycle into a long memo run.
func TestReplayedIterationsAllocateTheirReports(t *testing.T) {
	const n = 2000
	on, off := replayWindowAlloc(t, n, true), replayWindowAlloc(t, n, false)
	records := uint64(n) * uint64(unsafe.Sizeof(iterRecord{}))
	t.Logf("iterations %d-%d allocated %d B with the monitor and %d B without, for %d B of report records",
		n+1, 2*n, on, off, records)
	if on < off || on-off > 2*records {
		t.Fatalf("the monitor allocated %d B over iterations %d-%d, more than twice the %d B of report records they store",
			int64(on-off), n+1, 2*n, records)
	}
}
