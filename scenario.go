package hpn

import (
	"errors"
	"fmt"
	"runtime"

	"hpn/internal/failure"
	"hpn/internal/sim"
)

// Scenario describes one training run as data: the fabric, the job, the
// link-fault schedule and the observers. Build assembles it and the
// returned ScenarioRun executes it; hpnsim, the golden determinism tests
// and the training experiments all describe their runs this way.
type Scenario struct {
	// HPN or DCN is the fabric; set exactly one. An HPN fabric with
	// Pods > 1 and no Placement runs on the sharded engine, with the job
	// replicated in every pod (see ShardedTrainer).
	HPN *HPNConfig
	DCN *DCNConfig
	// Model trains on Hosts hosts (8 GPUs each), in every pod on the
	// sharded engine, with tensor and pipeline parallelism TP and PP; data
	// parallelism spans the rest.
	Model  ModelSpec
	TP, PP int
	Hosts  int
	// Placement lists the job's Hosts fabric host IDs in rank order, and
	// a placed job runs on one engine whatever the pod count, so it can
	// span pods. Nil places the job segment-first (Cluster.PlaceJob).
	Placement []int
	// Iterations is how many iterations every trainer runs. A Horizon > 0
	// stops the run at that virtual time instead (single engine only).
	Iterations int
	Horizon    sim.Time
	// Workers is the sharded engine's worker goroutine count; <= 0 selects
	// NumCPU. Results are identical for every value.
	Workers int
	// FlowLog records every completed flow on every engine.
	FlowLog bool
	// Telemetry, when non-nil, gives the run a hub of its own with these
	// options, through which the memo recorder, the in-band collector and
	// the health monitor attach; nil runs without telemetry.
	Telemetry *TelemetryOptions
	// Faults is the link-fault schedule, injected on the engine that owns
	// each link.
	Faults []LinkFault
}

// LinkFault takes the access cable of fabric host Host's NIC NIC, port
// Port (Topology.AccessLink) down at FailAt and back up at RecoverAt (0:
// never). With Flaps > 0 the cable flaps from FailAt instead: Flaps cycles
// of flapDown down and flapUp up, the Fig. 18 pattern.
type LinkFault struct {
	Host, NIC, Port   int
	FailAt, RecoverAt sim.Time
	Flaps             int
}

// The dwell times of a flapping cable.
const (
	flapDown = 1500 * sim.Millisecond
	flapUp   = 500 * sim.Millisecond
)

// ScenarioRun is a built Scenario, ready to Run. A single-engine run fills
// Cluster and Trainer, a sharded run Sharded and ShardedTrainer. Hub is the
// run's telemetry hub, nil without telemetry.
type ScenarioRun struct {
	Scenario       Scenario
	Cluster        *Cluster
	Trainer        *Trainer
	Sharded        *ShardedCluster
	ShardedTrainer *ShardedTrainer
	Hub            *TelemetryHub
}

// Parallelism returns the job's decomposition: TP and PP as given, data
// parallelism over the remaining GPUs.
func (s Scenario) Parallelism() Parallelism {
	return Parallelism{TP: s.TP, PP: s.PP, DP: s.Hosts * 8 / (s.TP * s.PP)}
}

// Validate reports why s cannot be built, or nil. Build also checks the
// placement and the faults against the fabric.
func (s Scenario) Validate() error {
	switch {
	case (s.HPN == nil) == (s.DCN == nil):
		return fmt.Errorf("hpn: a scenario needs exactly one of an HPN or a DCN+ fabric")
	case s.Hosts <= 0 || s.TP <= 0 || s.PP <= 0 || s.Iterations <= 0:
		return fmt.Errorf("hpn: hosts, tp, pp and iterations must be positive, got %d, %d, %d and %d",
			s.Hosts, s.TP, s.PP, s.Iterations)
	case s.Hosts*8%(s.TP*s.PP) != 0:
		return fmt.Errorf("hpn: %d GPUs not divisible by tp*pp=%d", s.Hosts*8, s.TP*s.PP)
	case s.Horizon > 0 && s.sharded():
		return fmt.Errorf("hpn: a run horizon needs a single-engine run")
	}
	return nil
}

// sharded reports whether s runs on the sharded engine: a multi-pod HPN
// fabric with the job placed by pod rather than by Placement.
func (s Scenario) sharded() bool { return s.HPN != nil && s.HPN.Pods > 1 && s.Placement == nil }

// Build validates s and assembles its hub, fabric, trainers and fault
// schedule without starting anything, so probes and watchdogs can attach
// before Run.
func (s Scenario) Build() (*ScenarioRun, error) { return s.build(nil) }

// build is Build on hub h, which an experiment passes from its Env; s then
// sets no Telemetry.
func (s Scenario) build(h *TelemetryHub) (*ScenarioRun, error) {
	r, err := s.buildFabric(h)
	if err == nil {
		err = r.addJob()
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// buildFabric is the first half of build: it validates s and assembles
// the fabric, joined to h or to a hub made from s.Telemetry. A caller that
// must build several fabrics before their jobs, to keep the hub's join
// order, calls addJob itself.
func (s Scenario) buildFabric(h *TelemetryHub) (*ScenarioRun, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Telemetry != nil {
		if h != nil {
			return nil, fmt.Errorf("hpn: a scenario built on a given hub takes no Telemetry options")
		}
		h = NewTelemetryHub(*s.Telemetry)
	}
	r := &ScenarioRun{Scenario: s, Hub: h}
	var err error
	switch {
	case s.sharded():
		if r.Sharded, err = NewShardedHPN(*s.HPN, h); err != nil {
			return nil, err
		}
		if s.Workers <= 0 {
			s.Workers = runtime.NumCPU()
		}
		r.Sharded.SetWorkers(s.Workers)
	case s.HPN != nil:
		r.Cluster, err = NewHPN(*s.HPN)
	default:
		r.Cluster, err = NewDCN(*s.DCN)
	}
	if err != nil {
		return nil, err
	}
	if r.Cluster != nil {
		r.Cluster.EnableTelemetry(h)
	}
	for _, c := range r.clusters() {
		if s.FlowLog {
			c.Net.EnableFlowLog()
		}
	}
	return r, nil
}

// addJob is the second half of Build: it places the trainers on the
// fabric and schedules the faults.
func (r *ScenarioRun) addJob() error {
	s := r.Scenario
	var err error
	if r.Sharded != nil {
		r.ShardedTrainer, err = NewShardedTrainer(r.Sharded, s.Model, s.Parallelism())
	} else {
		r.Trainer, err = placeTrainer(r.Cluster, s.Model, s.Parallelism(), s.Placement)
	}
	if err != nil {
		return err
	}
	for _, f := range s.Faults {
		if err := r.inject(f); err != nil {
			return err
		}
	}
	return nil
}

// clusters lists the run's engines: its one cluster, or the sharded global
// domain and then every pod.
func (r *ScenarioRun) clusters() []*Cluster {
	if r.Sharded == nil {
		return []*Cluster{r.Cluster}
	}
	return append([]*Cluster{r.Sharded.Global}, r.Sharded.Pods...)
}

// placeTrainer builds the trainer of a par-shaped job of model m on c,
// on the placed hosts or, when placed is nil, segments first. A placed
// host must be an active host of the fabric, placed once.
func placeTrainer(c *Cluster, m ModelSpec, par Parallelism, placed []int) (*Trainer, error) {
	if placed == nil {
		var err error
		if placed, err = c.PlaceJob(par.GPUs() / 8); err != nil {
			return nil, err
		}
	}
	hosts := c.Topo.Hosts
	seen := make([]bool, len(hosts))
	for _, h := range placed {
		switch {
		case h < 0 || h >= len(hosts) || hosts[h].Backup:
			return nil, fmt.Errorf("hpn: placement host %d is not an active host of the fabric", h)
		case seen[h]:
			return nil, fmt.Errorf("hpn: placement lists host %d twice", h)
		}
		seen[h] = true
	}
	job, err := NewJob(m, par, placed)
	if err != nil {
		return nil, err
	}
	return NewTrainer(c, job)
}

// inject schedules one fault on the engine that owns its link. It refuses
// a cable the fabric does not have and a schedule that would run wrong: a
// negative time, a recovery before the failure, or a flapping cable with
// a recovery time, which would be ignored.
func (r *ScenarioRun) inject(f LinkFault) error {
	c := r.clusters()[0]
	hosts := c.Topo.Hosts
	switch {
	case f.Host < 0 || f.Host >= len(hosts) || f.NIC < 0 || f.NIC >= len(hosts[f.Host].NICs) ||
		f.Port < 0 || f.Port >= len(hosts[f.Host].NICs[f.NIC].Ports):
		return fmt.Errorf("hpn: fault %+v: the fabric has no such access cable", f)
	case f.FailAt < 0 || f.RecoverAt < 0 || f.Flaps < 0:
		return fmt.Errorf("hpn: fault %+v: negative time or flap count", f)
	case f.Flaps > 0 && f.RecoverAt != 0:
		return fmt.Errorf("hpn: fault %+v: a flapping cable takes no RecoverAt", f)
	case f.RecoverAt != 0 && f.RecoverAt <= f.FailAt:
		return fmt.Errorf("hpn: fault %+v: RecoverAt must follow FailAt", f)
	}
	lk := c.Topo.AccessLink(f.Host, f.NIC, f.Port)
	if r.Sharded != nil {
		c = r.Sharded.DomainFor(lk)
	}
	in := &failure.Injector{Net: c.Net}
	if f.Flaps > 0 {
		in.FlapLinkAt(f.FailAt, lk, flapDown, flapUp, f.Flaps)
		return nil
	}
	in.FailLinkAt(f.FailAt, lk)
	if f.RecoverAt > 0 {
		in.RecoverLinkAt(f.RecoverAt, lk)
	}
	return nil
}

// ErrStalled is the error Run wraps when a run without a horizon went
// quiet short of its iterations. The run itself completed, so its results
// and artifacts can still be read and written.
var ErrStalled = errors.New("hpn: training stalled")

// Run starts every trainer and drives the run to quiescence, or to the
// horizon. Without a horizon, a run that stops short of its iterations
// returns an error wrapping ErrStalled.
func (r *ScenarioRun) Run() error {
	s := r.Scenario
	trainers := []*Trainer{r.Trainer}
	if st := r.ShardedTrainer; st != nil {
		if err := st.Start(s.Iterations); err != nil {
			return err
		}
		r.Sharded.Run()
		trainers = st.Trainers
	} else {
		if err := r.Trainer.Start(s.Iterations); err != nil {
			return err
		}
		if s.Horizon > 0 {
			r.Cluster.Eng.RunUntil(s.Horizon)
			return nil
		}
		r.Cluster.Eng.Run()
	}
	for _, tr := range trainers {
		if tr.Iterations != s.Iterations {
			return fmt.Errorf("%w at %d/%d", ErrStalled, tr.Iterations, s.Iterations)
		}
	}
	return nil
}

// WriteArtifacts writes every artifact the run's hub exports into dir
// (on a sharded run, every pod hub's too), returning the paths written.
func (r *ScenarioRun) WriteArtifacts(dir string) ([]string, error) {
	if r.Hub == nil {
		return nil, fmt.Errorf("hpn: run has no telemetry hub")
	}
	return r.Hub.WriteArtifacts(dir)
}
