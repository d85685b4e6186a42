// Package prof is the engine's self-observability layer: an always-on,
// zero-dependency phase profiler plus a bounded incident flight recorder.
//
// Where the telemetry package observes the simulated *fabric* (flows,
// links, incidents), prof observes the *simulator*: how much host wall
// time and how many heap allocations each engine phase consumed — event
// dispatch, allocator recompute, heap maintenance, component
// decomposition, clean-component reuse, memo lookup/replay, artifact
// flushing. That breakdown is what sharding and fidelity-granularity
// decisions need before any partitioning is defensible.
//
// Determinism contract: phase *counts* are pure functions of the simulated
// run and stay byte-identical across same-seed runs. Wall-time and
// allocation fields are host measurements and are inherently
// nondeterministic; they are segregated into the prof.json artifact
// (excluded from the golden determinism set) and into registry
// *gauges* — never counters — so the memo recorder's metrics snapshots
// (counters + histograms only, see telemetry.MetricsSnapshot) can never
// absorb a wall-clock value into a replayed window. This is the
// LiveMetricsOwner-style exclusion for the registry view: gauges read live
// profiler state and are excluded from recorded deltas by construction.
//
// Cost contract: every method is safe on a nil receiver, so the disabled
// path costs one nil check per instrumentation point — the same bargain
// telemetry.Counter strikes. Accumulation is lock-free: each Phase keeps
// atomic accumulators, because the pod simulators of a sharded run share
// one profiler and end phases from concurrent windows. Integer addition is
// order-independent, so the counts stay deterministic.
package prof

import (
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// allocMetric is the runtime/metrics key for cumulative heap allocations
// (objects). Reading it is far cheaper than runtime.ReadMemStats, but it
// is still a process-global counter: allocation deltas are only
// attributable for phases that run serially (run loop, replay, artifact
// writers), which is why Phase tracks allocations only when registered
// through PhaseAlloc.
const allocMetric = "/gc/heap/allocs:objects"

// Phase is one named cost bucket. All methods are nil-safe; a nil Phase
// (profiling disabled) costs one branch per call.
type Phase struct {
	name, help string
	trackAlloc bool
	count      atomic.Int64
	wall       atomic.Int64 // nanoseconds
	alloc      atomic.Int64 // heap objects
}

// Token carries one Begin's start measurements to the matching End.
type Token struct {
	t0 time.Time
	a0 uint64
}

// Begin starts one timed occurrence of the phase. Nil-safe: on a nil
// phase it returns the zero Token, which End ignores.
func (ph *Phase) Begin() Token {
	if ph == nil {
		return Token{}
	}
	tk := Token{t0: time.Now()} //hpnlint:allow wallclock -- host-cost profiling; wall values are segregated into prof artifacts and gauges, never simulator state
	if ph.trackAlloc {
		tk.a0 = readAllocs()
	}
	return tk
}

// End closes a Begin. Nil-safe; a zero Token (from a Begin on a then-nil
// phase) is ignored.
func (ph *Phase) End(tk Token) {
	if ph == nil || tk.t0.IsZero() {
		return
	}
	wall := time.Since(tk.t0).Nanoseconds() //hpnlint:allow wallclock -- host-cost profiling; wall values are segregated into prof artifacts and gauges, never simulator state
	ph.count.Add(1)
	ph.wall.Add(wall)
	if ph.trackAlloc {
		ph.alloc.Add(int64(readAllocs() - tk.a0))
	}
}

// Add accumulates n count-only occurrences (bulk dispatch counts, heap
// operations tallied locally in a hot loop). Nil-safe.
func (ph *Phase) Add(n int64) {
	if ph == nil || n == 0 {
		return
	}
	ph.count.Add(n)
}

// stat reads the accumulators.
func (ph *Phase) stat() PhaseStat {
	return PhaseStat{Name: ph.name, Help: ph.help,
		Count: ph.count.Load(), WallNS: ph.wall.Load(), Allocs: ph.alloc.Load()}
}

// readAllocs reads the process-lifetime heap allocation count (objects).
func readAllocs() uint64 {
	var s [1]metrics.Sample
	s[0].Name = allocMetric
	metrics.Read(s[:])
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// GaugeRegistry is the slice of telemetry.Registry the profiler publishes
// through, declared here so prof stays dependency-free (telemetry imports
// prof, not the reverse).
type GaugeRegistry interface {
	Gauge(name, help string, fn func() float64)
}

// Profiler is a set of named phases. The zero value is not usable;
// construct with New. All methods are nil-safe, so layers hold a nil
// *Profiler while profiling is disabled and every Phase they register
// comes back nil.
type Profiler struct {
	mu     sync.Mutex
	phases map[string]*Phase
	reg    GaugeRegistry
	prefix string
}

// New returns an empty profiler.
func New() *Profiler {
	return &Profiler{phases: map[string]*Phase{}}
}

// Phase returns the phase registered under name, creating it on first use
// (the help string of the first registration wins). A nil profiler
// returns a nil (no-op) phase.
func (p *Profiler) Phase(name, help string) *Phase {
	return p.phase(name, help, false)
}

// PhaseAlloc is Phase with heap-allocation tracking enabled. Allocation
// deltas are process-global, so only serial phases (run loop, replay,
// artifact writers) should use it; a parallel phase would absorb its
// siblings' allocations.
func (p *Profiler) PhaseAlloc(name, help string) *Phase {
	return p.phase(name, help, true)
}

func (p *Profiler) phase(name, help string, alloc bool) *Phase {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if ph, ok := p.phases[name]; ok {
		return ph
	}
	ph := &Phase{name: name, help: help, trackAlloc: alloc}
	p.phases[name] = ph
	if p.reg != nil {
		p.registerGauges(ph)
	}
	return ph
}

// BindMetrics publishes every phase — current and future — as registry
// gauges named <prefix><phase>_count, _wall_seconds and (alloc-tracked
// phases) _allocs. Gauges, not counters, on purpose: the memo recorder's
// snapshot/delta machinery covers counters and histograms only, so
// wall-clock values can never leak into a replayed window's metrics
// delta. Nil-safe.
func (p *Profiler) BindMetrics(reg GaugeRegistry, prefix string) {
	if p == nil || reg == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reg = reg
	p.prefix = prefix
	for _, name := range p.sortedNamesLocked() {
		p.registerGauges(p.phases[name])
	}
}

// registerGauges installs the per-phase gauge views. Callers hold p.mu.
func (p *Profiler) registerGauges(ph *Phase) {
	base := p.prefix + sanitizePhase(ph.name)
	p.reg.Gauge(base+"_count", "profiler: occurrences of phase "+ph.name,
		func() float64 { return float64(ph.stat().Count) })
	p.reg.Gauge(base+"_wall_seconds", "profiler: host wall time in phase "+ph.name+" (nondeterministic)",
		func() float64 { return float64(ph.stat().WallNS) / 1e9 })
	if ph.trackAlloc {
		p.reg.Gauge(base+"_allocs", "profiler: heap objects allocated in phase "+ph.name+" (nondeterministic)",
			func() float64 { return float64(ph.stat().Allocs) })
	}
}

// sanitizePhase maps a phase name onto the metric-name charset.
func sanitizePhase(name string) string {
	b := []byte(name)
	for i, c := range b {
		if c == '/' || c == '-' || c == '.' {
			b[i] = '_'
		}
	}
	return string(b)
}

// Snapshot returns the stats of every phase with a nonzero count,
// sorted by name. Zero-count phases are omitted: a registered-but-unhit
// phase (e.g. memo replay on a run that never hit its cache) is
// configuration, not cost. Nil-safe (returns nil).
func (p *Profiler) Snapshot() []PhaseStat {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	names := p.sortedNamesLocked()
	phases := make([]*Phase, 0, len(names))
	for _, n := range names {
		phases = append(phases, p.phases[n])
	}
	p.mu.Unlock()
	out := make([]PhaseStat, 0, len(phases))
	for _, ph := range phases {
		if st := ph.stat(); st.Count > 0 {
			out = append(out, st)
		}
	}
	return out
}

// sortedNamesLocked returns the phase names in sorted order. Iteration
// over the phases map never reaches ordered output directly — every
// export path goes through this sort, keeping artifacts deterministic.
// Callers hold p.mu.
func (p *Profiler) sortedNamesLocked() []string {
	names := make([]string, 0, len(p.phases))
	for n := range p.phases {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
