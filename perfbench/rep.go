package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"hpn"
	"hpn/internal/health"
	"hpn/internal/memo"
	"hpn/internal/netsim"
	"hpn/internal/prof"
	"hpn/internal/sim"
	"hpn/internal/telemetry"
)

// repConfig selects one rep: a workload at a seed, plain or traced, in its
// measured form or in one of the workload's comparison variants.
type repConfig struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Variant  string `json:"variant,omitempty"`
	Traced   bool   `json:"traced,omitempty"`
	Tiny     bool   `json:"tiny,omitempty"`
}

// fingerprint is a rep's simulated outcome. Every field is a pure function
// of the workload, its size and the seed, so reps of one commit agree bit
// for bit, and a change that only alters host speed leaves it unchanged.
type fingerprint struct {
	Flows        int64    `json:"flows"`
	Events       uint64   `json:"events"`
	SimEndNS     int64    `json:"sim_end_ns"`
	SamplesPerS  []string `json:"samples_per_s_bits"`
	Iterations   int      `json:"iterations"`
	MemoReplayed int64    `json:"memo_replayed"`
	Windows      int      `json:"windows"`
	Incidents    int      `json:"incidents"`
	// Artifacts maps each deterministic artifact to its SHA-256. The
	// profiler's own files hold host times and are left out.
	Artifacts map[string]string `json:"artifacts_sha256,omitempty"`
}

// key is the canonical encoding two fingerprints are compared by.
func (f fingerprint) key() string {
	b, err := json.Marshal(f)
	if err != nil {
		panic(err) // strings, integers and a string map always encode
	}
	return string(b)
}

// simulation keeps the counts of what the simulated training produced —
// flows, iterations and end time — for comparing runs whose observers
// differ. Observers add daemon events, incidents and artifacts, and the
// periodic sampler brings flow progress up to date at every tick, which
// rounds differently: with every observer off, faults-observed's samples/s
// differs from the observed run's in the last two bits.
func (f fingerprint) simulation() fingerprint {
	return fingerprint{Flows: f.Flows, SimEndNS: f.SimEndNS, Iterations: f.Iterations}
}

// repResult is what one rep reports to the parent process.
type repResult struct {
	Err         string      `json:"err,omitempty"`
	Fingerprint fingerprint `json:"fingerprint"`
	SetupS      float64     `json:"setup_s"`
	RunS        float64     `json:"run_s"`
	ArtifactS   float64     `json:"artifact_s"`
	TotalS      float64     `json:"total_s"`
	// IterMS is the host time between successive iterations of each
	// trainer, the first measured from the start of its Run.
	IterMS     []float64 `json:"iter_ms"`
	Allocs     uint64    `json:"allocs"`
	AllocBytes uint64    `json:"alloc_bytes"`
	// SetupAllocs is the heap objects allocated from the first constructor
	// call to the first Run.
	SetupAllocs uint64 `json:"setup_allocs"`
	// LiveHeapMB is the heap still reachable once the rep is done, with
	// the simulated fabric and its observers alive: a forced collection
	// makes it exact, where peak RSS depends on when collections ran.
	LiveHeapMB float64 `json:"live_heap_mb"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	// RefS is the host-speed reading taken around the rep and Scale the
	// factor to nominal seconds derived from it (see hostref.go); the
	// parent process fills both in.
	RefS  float64 `json:"ref_s,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	// Layers holds the traced rep's per-layer metrics.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// clock reads host wall time. Every bench measurement goes through it.
func clock() time.Time {
	return time.Now() //hpnlint:allow wallclock -- host time is what the benchmark measures; it never feeds the simulation
}

// heapAllocs reads the process's cumulative heap allocations.
func heapAllocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// iterClock times one trainer's iterations. Each trainer fires on its own
// engine, so on the sharded workload each pod's clock has one writer.
type iterClock struct {
	last time.Time
	ms   []float64
}

// rep is one execution of a workload, with the probes the workload code
// calls around each call into a layer's public functions.
type rep struct {
	cfg  repConfig
	size sizing
	out  repResult

	// What the workload built, read back for the fingerprint and counts.
	hub      *telemetry.Hub
	nets     []*netsim.Sim
	engines  []*sim.Engine
	trainers []*hpn.Trainer
	clocks   []*iterClock
	coord    *sim.Sharded
	// iters is the iteration count every trainer must complete; 0 means
	// the workload runs to a horizon and needs only some progress.
	iters int

	// Traced pass only: the profilers the layers report phases into (on
	// the sharded workload, prof holds the global domain and coordinator,
	// shardProf the pods) and the bench's own spans.
	prof      *prof.Profiler
	shardProf *prof.Profiler
	workers   int
	spans     map[string]time.Duration
	artBytes  int64

	t0, tEnd         time.Time
	obj0, bytes0     uint64
	objEnd, bytesEnd uint64
	setupDone        bool
	runObjs          uint64
}

// runRep executes one rep in this process.
func runRep(cfg repConfig) repResult {
	w, ok := lookupWorkload(cfg.Workload)
	if !ok {
		return repResult{Err: fmt.Sprintf("unknown workload %q", cfg.Workload)}
	}
	r := &rep{cfg: cfg, size: fullSize, workers: 1}
	if cfg.Tiny {
		r.size = tinySize
	}
	if cfg.Traced {
		r.spans = map[string]time.Duration{}
	}
	err := w.run(r)
	if err == nil {
		err = r.finish()
	}
	if err == nil && cfg.Traced {
		r.out.Layers, err = r.layers()
	}
	if err != nil {
		r.out.Err = err.Error()
	}
	r.out.PeakRSSMB = peakRSSMB()
	return r.out
}

// peakRSSMB returns the process's peak resident set (VmHWM in
// /proc/self/status), or 0 where the kernel does not provide it. A child's
// rusage Maxrss would not do: Linux counts into it the parent's pages at
// the moment of the fork.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// newHub returns a hub with options opt and, on the traced pass, the
// profiler on; it returns nil for an untraced workload that runs without
// one (opt == nil).
func (r *rep) newHub(opt *telemetry.Options) *telemetry.Hub {
	if opt == nil && !r.cfg.Traced {
		return nil
	}
	var o telemetry.Options
	if opt != nil {
		o = *opt
	}
	o.Prof = r.cfg.Traced
	h := telemetry.NewHub(o)
	r.prof = h.Prof
	return h
}

// span runs fn and, on the traced pass, adds its wall time to span name.
func (r *rep) span(name string, fn func() error) error {
	if r.spans == nil {
		return fn()
	}
	t := clock()
	err := fn()
	r.spans[name] += clock().Sub(t)
	return err
}

// startSetup marks the first constructor call.
func (r *rep) startSetup() {
	r.obj0, r.bytes0 = heapAllocs()
	r.t0 = clock()
}

// cluster builds one cluster under the setup.cluster span and attaches the
// rep's hub. On the traced pass it first times the topology build alone
// (see topoSpan), so cluster assembly can be told apart from the topology
// build inside it.
func (r *rep) cluster(buildTopo func() error, build func() (*hpn.Cluster, error)) (*hpn.Cluster, error) {
	if err := r.topoSpan(buildTopo); err != nil {
		return nil, err
	}
	var c *hpn.Cluster
	err := r.span("setup.cluster", func() error {
		var err error
		c, err = build()
		if err == nil {
			c.EnableTelemetry(r.hub)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	r.nets = append(r.nets, c.Net)
	r.engines = append(r.engines, c.Eng)
	return c, nil
}

// topoSpan, on the traced pass, builds the topology once to warm up and
// then again under the setup.topo span: the build inside the constructor
// that follows runs warm too, so setup.cluster minus setup.topo is the
// cluster assembly alone.
func (r *rep) topoSpan(buildTopo func() error) error {
	if !r.cfg.Traced {
		return nil
	}
	if err := buildTopo(); err != nil {
		return err
	}
	return r.span("setup.topo", buildTopo)
}

// trainer places a job of the given shape on c and builds its trainer
// under the setup.job span.
func (r *rep) trainer(c *hpn.Cluster, m hpn.ModelSpec, par hpn.Parallelism) (*hpn.Trainer, error) {
	var tr *hpn.Trainer
	err := r.span("setup.job", func() error {
		hosts, err := c.PlaceJob(par.GPUs() / 8)
		if err != nil {
			return err
		}
		job, err := hpn.NewJob(m, par, hosts)
		if err != nil {
			return err
		}
		tr, err = hpn.NewTrainer(c, job)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.watch(tr)
	return tr, nil
}

// watch chains an iteration clock onto the trainer's callback.
func (r *rep) watch(tr *hpn.Trainer) {
	ic := &iterClock{}
	r.trainers = append(r.trainers, tr)
	r.clocks = append(r.clocks, ic)
	prev := tr.OnIteration
	tr.OnIteration = func(iter int, now sim.Time) {
		if prev != nil {
			prev(iter, now)
		}
		t := clock()
		ic.ms = append(ic.ms, float64(t.Sub(ic.last))/1e6)
		ic.last = t
	}
}

// run times one call that drives the simulation. The first call ends setup.
func (r *rep) run(fn func()) {
	obj, _ := heapAllocs()
	t := clock()
	if !r.setupDone {
		r.setupDone = true
		r.out.SetupS = t.Sub(r.t0).Seconds()
		r.out.SetupAllocs = obj - r.obj0
	}
	for _, ic := range r.clocks {
		ic.last = t
	}
	fn()
	end := clock()
	obj2, _ := heapAllocs()
	r.runObjs += obj2 - obj
	r.out.RunS += end.Sub(t).Seconds()
	if r.spans != nil {
		r.spans["run"] += end.Sub(t)
	}
	r.markEnd(end)
}

// markEnd records the end of the measured work: total_s and the rep's
// allocation counts stop here, before hashing.
func (r *rep) markEnd(t time.Time) {
	r.tEnd = t
	r.objEnd, r.bytesEnd = heapAllocs()
}

// writeArtifacts writes every registry artifact of the hub, plus trace.json
// when the hub traces, into a temporary directory under the artifacts span;
// then hashes the deterministic ones into the fingerprint and removes the
// directory.
func (r *rep) writeArtifacts() error {
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	t := clock()
	paths, err := r.hub.WriteArtifacts(dir)
	if err != nil {
		return err
	}
	if r.hub.Tracer != nil {
		path := filepath.Join(dir, "trace.json")
		if err := r.span("artifact.trace_json", func() error { return writeTrace(path, r.hub.Tracer) }); err != nil {
			return err
		}
		paths = append(paths, path)
	}
	end := clock()
	r.out.ArtifactS += end.Sub(t).Seconds()
	if r.spans != nil {
		r.spans["artifacts"] += end.Sub(t)
	}
	r.markEnd(end)

	sums := map[string]string{}
	for _, p := range paths {
		name := filepath.Base(p)
		n, sum, err := hashFile(p)
		if err != nil {
			return err
		}
		r.artBytes += n
		if !strings.HasSuffix(name, "prof.tsv") && !strings.HasSuffix(name, "prof.json") && !strings.HasSuffix(name, "flight.tsv") {
			sums[name] = sum
		}
	}
	r.out.Fingerprint.Artifacts = sums
	return nil
}

func writeTrace(path string, tr *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := tr.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func hashFile(path string) (int64, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, "", err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return 0, "", err
	}
	return n, hex.EncodeToString(h.Sum(nil)), nil
}

// finish checks that the training completed and fills in the fingerprint,
// the times and the allocation counts.
func (r *rep) finish() error {
	fp := &r.out.Fingerprint
	for i, tr := range r.trainers {
		if tr.FirstErr != nil {
			return fmt.Errorf("trainer %d: %w", i, tr.FirstErr)
		}
		if r.iters > 0 && tr.Iterations != r.iters {
			return fmt.Errorf("trainer %d stalled at iteration %d/%d", i, tr.Iterations, r.iters)
		}
		if tr.Iterations == 0 {
			return fmt.Errorf("trainer %d completed no iteration", i)
		}
		fp.Iterations += tr.Iterations
		fp.SamplesPerS = append(fp.SamplesPerS, strconv.FormatUint(math.Float64bits(tr.MeanSamplesPerSecond()), 16))
	}
	for _, n := range r.nets {
		fp.Flows += n.CompletedFlows
		fp.MemoReplayed += memo.RecorderOf(n).Stats().Replayed
		if m := health.MonitorOf(n); m != nil {
			fp.Incidents += len(m.Incidents())
		}
	}
	for _, e := range r.engines {
		fp.Events += e.Processed
		if int64(e.Now()) > fp.SimEndNS {
			fp.SimEndNS = int64(e.Now())
		}
	}
	if r.coord != nil {
		fp.Windows = r.coord.Windows
	}
	if fp.Flows == 0 {
		return fmt.Errorf("no flow completed")
	}
	for _, ic := range r.clocks {
		r.out.IterMS = append(r.out.IterMS, ic.ms...)
	}
	r.out.TotalS = r.tEnd.Sub(r.t0).Seconds()
	r.out.Allocs = r.objEnd - r.obj0
	r.out.AllocBytes = r.bytesEnd - r.bytes0
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	r.out.LiveHeapMB = float64(live[0].Value.Uint64()) / (1 << 20)
	return nil
}
