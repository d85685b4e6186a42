package telemetry

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"hpn/internal/prof"
)

// Options configures a Hub.
type Options struct {
	// Trace enables span/instant-event recording (Chrome trace JSON).
	Trace bool
	// MaxTraceEvents bounds the trace buffer (0 = unbounded); events past
	// the cap are counted as dropped.
	MaxTraceEvents int
	// SampleInterval is the sampler period in virtual nanoseconds
	// (0 disables periodic sampling). Each sampled series keeps its most
	// recent sampleRingCap (4096) samples, and each cluster samples its
	// first 16 ToR uplink ports (see core.Cluster.EnableTelemetry).
	SampleInterval int64
	// Inband enables in-band path telemetry on attached clusters: per-flow
	// per-hop records (bandwidth attribution, queue residency, ECMP hash
	// decisions) exported as the "inband.tsv"/"inband.json" artifacts.
	Inband bool
	// InbandMax bounds the retained per-hop records per cluster
	// (0 = unbounded); records past the cap are counted as dropped.
	InbandMax int
	// Health attaches the online fabric health monitor to each cluster:
	// streaming flap/stall/polarization/throughput detectors plus
	// per-iteration attribution, exported as the "incidents.tsv" and
	// "incidents.json" artifacts (rendered by hpndoctor).
	Health bool
	// Memo attaches the iteration-memoization recorder to each cluster:
	// repeated training iterations are fingerprinted and fast-forwarded
	// from a recorded window instead of re-simulated (see internal/memo).
	// Incompatible with periodic sampling — the sampler's tick would land
	// inside every window — so NewHub turns SampleInterval off under Memo.
	Memo bool
	// Prof enables engine self-profiling (internal/prof): per-phase
	// wall/alloc/count accumulators across sim, netsim, memo and the
	// artifact writers, a bounded flight recorder of recent fabric events,
	// and the "prof.json"/"flight.tsv" artifacts. Phase counts
	// and flight contents are deterministic; wall/alloc fields are host
	// measurements, published only through prof.json (never the metrics
	// registry), so golden artifacts, metrics and memo replay stay
	// byte-identical with profiling on.
	Prof bool
}

// sampleRingCap bounds each series a hub's sampler keeps to its most
// recent samples.
const sampleRingCap int = 4096

// DefaultOptions enables tracing and a 10ms-virtual-time sampler.
func DefaultOptions() Options {
	return Options{
		Trace:          true,
		SampleInterval: 10_000_000, // 10ms of virtual time
	}
}

// Hub bundles one run's telemetry surfaces: a shared Tracer (one process
// per attached cluster), a shared Registry, and one Sampler per cluster.
type Hub struct {
	Opt      Options
	Tracer   *Tracer // nil when tracing is disabled
	Registry *Registry
	// Prof and Flight are shared across every attached cluster (like the
	// Tracer): phases accumulate process-wide, the flight ring interleaves
	// all clusters' fabric events. Both nil when profiling is disabled.
	Prof   *prof.Profiler
	Flight *prof.Flight

	mu       sync.Mutex
	clusters int

	// parent, on a hub derived with ShardHub, is the root hub that owns
	// cluster-prefix allocation. Everything byte-producing (Tracer,
	// Registry, Flight) is private per shard hub so concurrent shard
	// windows never interleave writes; the profiler is shared (its
	// accumulators are atomic and its counts order-independent).
	parent *Hub
	// shards, on a root hub, lists the hubs ShardHub derived from it, in
	// creation order; the root writes their artifacts after its own.
	shards []*Hub
}

// NewHub builds a hub from opt. Memo turns periodic sampling off (see
// Options.Memo).
func NewHub(opt Options) *Hub {
	if opt.Memo {
		opt.SampleInterval = 0
	}
	h := &Hub{Opt: opt, Registry: NewRegistry()}
	if opt.Trace {
		h.Tracer = NewTracer(opt.MaxTraceEvents)
	}
	if opt.Prof {
		h.Prof = prof.New()
		h.Flight = prof.NewFlight(0)
		h.Registry.RegisterExporter("prof.json", h.Prof.WriteJSON)
		h.Registry.RegisterExporter("flight.tsv", h.Flight.WriteTSV)
	}
	return h
}

// JoinCluster allocates the metric-name prefix and sampler for the next
// cluster attached to this hub. The first cluster is unprefixed so
// single-cluster runs keep clean metric names; later clusters get "c2_",
// "c3_", ... On a shard hub the prefix comes from the root hub's counter,
// so prefixes stay globally unique across the whole sharded ensemble and
// the shard's private artifacts (trace, flight ring) register under it.
// The sampler is nil when sampling is disabled.
func (h *Hub) JoinCluster() (prefix string, smp *Sampler) {
	if h.parent != nil {
		prefix = h.parent.allocPrefix()
		if h.Tracer != nil {
			h.Registry.RegisterExporter(prefix+"trace.json", func(w io.Writer) error {
				_, err := h.Tracer.WriteTo(w)
				return err
			})
		}
		if h.Flight != nil {
			h.Registry.RegisterExporter(prefix+"flight.tsv", h.Flight.WriteTSV)
		}
	} else {
		prefix = h.allocPrefix()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.Opt.SampleInterval > 0 {
		smp = NewSampler(h.Opt.SampleInterval, sampleRingCap)
		smp.AttachTracer(h.Tracer)
	}
	return prefix, smp
}

// allocPrefix hands out the next cluster prefix ("", "c2_", "c3_", ...).
func (h *Hub) allocPrefix() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.clusters++
	if h.clusters > 1 {
		return fmt.Sprintf("c%d_", h.clusters)
	}
	return ""
}

// ShardHub derives a hub for one shard domain of a sharded run. The shard
// hub shares the root's Options and Profiler (atomic accumulators;
// deterministic counts) but owns a fresh Tracer, Registry and Flight
// recorder: all three serialize records into byte streams under the
// assumption of a single writer, so concurrent shard windows must each
// write their own. Cluster prefixes are still allocated by the root
// (JoinCluster delegates), keeping metric names and artifact names unique
// across the ensemble; fold shard counters back with Registry.Absorb once
// the run is done and the engines are quiescent. The root keeps the shard
// hub: its WriteArtifacts writes the shard's artifacts too.
func (h *Hub) ShardHub() *Hub {
	root := h
	if h.parent != nil {
		root = h.parent
	}
	sh := &Hub{Opt: root.Opt, Registry: NewRegistry(), parent: root, Prof: root.Prof}
	if root.Opt.Trace {
		sh.Tracer = NewTracer(root.Opt.MaxTraceEvents)
	}
	if root.Prof != nil {
		sh.Flight = prof.NewFlight(0)
	}
	root.mu.Lock()
	root.shards = append(root.shards, sh)
	root.mu.Unlock()
	return sh
}

// Hubs returns h and then, on a root hub, every shard hub derived from it
// in creation order: every hub whose artifacts WriteArtifacts writes.
func (h *Hub) Hubs() []*Hub {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*Hub{h}, h.shards...)
}

// WriteArtifacts runs every registered artifact exporter of h and then of
// each of its shard hubs, writing each to dir/<name> (path separators in
// names are flattened to '_'). It returns the paths written, hub by hub in
// exporter registration order.
func (h *Hub) WriteArtifacts(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, hub := range h.Hubs() {
		for _, name := range hub.Registry.ExporterNames() {
			base := strings.Map(func(r rune) rune {
				if r == '/' || r == os.PathSeparator {
					return '_'
				}
				return r
			}, name)
			path := filepath.Join(dir, base)
			f, err := os.Create(path)
			if err != nil {
				return paths, err
			}
			// Artifact writers get their own alloc-tracked phase each: flush
			// cost per artifact is exactly what the prof report needs to
			// weigh observability overhead against simulation time. The
			// profiler's own artifacts participate too (their phases show up
			// in the next run's report, or at zero count in their own —
			// zero-count phases are omitted from output).
			ph := h.Prof.PhaseAlloc("artifact/"+name, "exporting the "+name+" artifact")
			tk := ph.Begin()
			err = hub.Registry.Export(name, f)
			ph.End(tk)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return paths, fmt.Errorf("telemetry: exporting %s: %w", name, err)
			}
			paths = append(paths, path)
		}
	}
	return paths, nil
}
