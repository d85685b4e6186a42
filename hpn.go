package hpn

import (
	"hpn/internal/collective"
	"hpn/internal/core"
	"hpn/internal/health"
	"hpn/internal/memo"
	"hpn/internal/telemetry"
	"hpn/internal/topo"
	"hpn/internal/workload"
)

// Re-exported architecture surface: these aliases are the supported public
// entry points; the internal packages behind them are implementation
// detail.

// Cluster is a built fabric (topology + simulator); see core.Cluster.
type Cluster = core.Cluster

// Arch identifies an architecture variant.
type Arch = core.Arch

// The architecture variants.
const (
	ArchHPN            = core.ArchHPN
	ArchHPNSinglePlane = core.ArchHPNSinglePlane
	ArchHPNSingleToR   = core.ArchHPNSingleToR
	ArchDCN            = core.ArchDCN
)

// HPNConfig parameterizes an HPN build; DefaultHPN gives production values.
type HPNConfig = topo.HPNConfig

// DCNConfig parameterizes the DCN+ baseline.
type DCNConfig = topo.DCNConfig

// DefaultHPN returns the production HPN configuration (15K GPUs per pod).
func DefaultHPN() HPNConfig { return topo.DefaultHPN() }

// SmallHPN returns a reduced HPN keeping the full structure.
func SmallHPN(segments, hostsPerSegment, aggsPerPlane int) HPNConfig {
	return topo.SmallHPN(segments, hostsPerSegment, aggsPerPlane)
}

// DefaultDCN returns the production DCN+ configuration (16K GPUs).
func DefaultDCN() DCNConfig { return topo.DefaultDCN() }

// SmallDCN returns a reduced DCN+ with the given pod count.
func SmallDCN(pods int) DCNConfig { return topo.SmallDCN(pods) }

// NewHPN builds an HPN (or ablation) cluster.
func NewHPN(cfg HPNConfig) (*Cluster, error) { return core.NewHPN(cfg) }

// NewDCN builds a DCN+ baseline cluster.
func NewDCN(cfg DCNConfig) (*Cluster, error) { return core.NewDCN(cfg) }

// Collective-library surface.

// CollectiveConfig tunes the communication library.
type CollectiveConfig = collective.Config

// CollectiveGroup performs collectives among a host set.
type CollectiveGroup = collective.Group

// NewCollectiveGroup establishes ring connections among hosts (all rails).
func NewCollectiveGroup(c *Cluster, cfg CollectiveConfig, hosts []int) (*CollectiveGroup, error) {
	return collective.NewGroup(c.Net, cfg, hosts, 8)
}

// Workload surface.

// ModelSpec describes an LLM; LLaMa7B, LLaMa13B and GPT175B are provided.
type ModelSpec = workload.ModelSpec

// The paper's representative models.
var (
	LLaMa7B  = workload.LLaMa7B
	LLaMa13B = workload.LLaMa13B
	GPT175B  = workload.GPT175B
)

// Parallelism is a TP/PP/DP decomposition.
type Parallelism = workload.Parallelism

// Job is a placed training job.
type Job = workload.Job

// Trainer simulates training iterations over the fabric.
type Trainer = workload.Trainer

// NewJob validates and returns a training job.
func NewJob(m ModelSpec, p Parallelism, hosts []int) (*Job, error) {
	return workload.NewJob(m, p, hosts)
}

// NewTrainer builds a trainer for the job on the cluster, using the
// cluster's native collective configuration. If the cluster carries the
// online health monitor (TelemetryOptions.Health), the trainer is watched
// for per-iteration incident attribution automatically.
func NewTrainer(c *Cluster, job *Job) (*Trainer, error) {
	tr, err := workload.NewTrainer(c.Net, job, c.CollectiveConfig())
	if err != nil {
		return nil, err
	}
	if m := health.MonitorOf(c.Net); m != nil {
		m.WatchTrainer(tr)
	}
	return tr, nil
}

// Health-monitoring surface.

// HealthMonitor is the online fabric health monitor attached under
// TelemetryOptions.Health: streaming flap/stall/polarization/throughput
// detectors plus per-iteration root-cause attribution.
type HealthMonitor = health.Monitor

// HealthMonitorOf returns the cluster's attached health monitor, or nil.
func HealthMonitorOf(c *Cluster) *HealthMonitor { return health.MonitorOf(c.Net) }

// Iteration-memoization surface.

// MemoRecorder is the iteration-memoization recorder attached under
// TelemetryOptions.Memo: steady-state training iterations are fingerprinted
// and fast-forwarded from a recorded window instead of re-simulated.
type MemoRecorder = memo.Recorder

// MemoStats is a recorder's hit/miss/invalidation counter snapshot.
type MemoStats = memo.Stats

// MemoRecorderOf returns the cluster's attached memo recorder, or nil.
func MemoRecorderOf(c *Cluster) *MemoRecorder { return memo.RecorderOf(c.Net) }

// Telemetry surface.

// TelemetryHub bundles one run's observability: a Chrome-trace Tracer, a
// counter/gauge Registry with Prometheus/JSON exporters, and per-cluster
// samplers.
type TelemetryHub = telemetry.Hub

// TelemetryOptions configures a TelemetryHub.
type TelemetryOptions = telemetry.Options

// DefaultTelemetryOptions enables tracing and a 10ms virtual-time sampler.
func DefaultTelemetryOptions() TelemetryOptions { return telemetry.DefaultOptions() }

// NewTelemetryHub builds a hub. A cluster joins it only through
// Cluster.EnableTelemetry, a Scenario or an experiment's Env.
func NewTelemetryHub(opt TelemetryOptions) *TelemetryHub { return telemetry.NewHub(opt) }
