package hpn

import (
	"fmt"

	"hpn/internal/collective"
	"hpn/internal/core"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

// Sharded-simulation surface: one multi-pod fabric simulated by an ensemble
// of per-pod engines advancing in conservative time windows (see
// internal/sim.Sharded and DESIGN.md "Sharded multi-plane event loop").

// ShardedCluster is a multi-pod fabric with one engine per pod plus a
// global domain for cores and cross-pod flows.
type ShardedCluster = core.ShardedCluster

// MultiPodHPN returns an HPN configuration with the given pod count (the
// tier3 Core layer is added automatically for Pods > 1).
func MultiPodHPN(pods, segments, hostsPerSegment, aggsPerPlane int) HPNConfig {
	c := topo.SmallHPN(segments, hostsPerSegment, aggsPerPlane)
	c.Pods = pods
	return c
}

// NewShardedHPN builds an HPN fabric and its per-pod engine ensemble, joined
// to hub h (its pods to shard hubs of h); a nil h builds it without one.
func NewShardedHPN(cfg HPNConfig, h *TelemetryHub) (*ShardedCluster, error) {
	return core.NewShardedHPN(cfg, h)
}

// ShardedTrainer trains one independent data-parallel job per pod and
// synchronizes the pods through a cross-pod gradient AllReduce between
// iterations — the §7 pattern of pod-local traffic dominating with a thin
// inter-pod exchange riding the 15:1-oversubscribed Core layer.
//
// Each pod's trainer runs entirely on its shard engine; when an iteration
// completes, the trainer's IterGate posts "done" into the global domain and
// the pod quiesces. Once every pod has arrived, the cross-pod AllReduce
// (one leader host per pod) runs on the global engine — the shards are
// paused, so it owns the fabric — and resume events are posted back. The
// gate doubles as the conservative window barrier and, under -memo, the
// memoization window edge.
type ShardedTrainer struct {
	SC *ShardedCluster
	// Trainers holds one per-pod trainer, in pod order.
	Trainers []*Trainer
	// CrossGroup is the leader-host collective group on the global domain.
	CrossGroup *CollectiveGroup
	// CrossBytes is the per-round inter-pod gradient volume.
	CrossBytes float64
	// Rounds counts completed cross-pod synchronization rounds;
	// CrossSeconds accumulates their simulated duration.
	Rounds       int
	CrossSeconds float64
	// FirstErr records the first cross-pod launch error (pod-local errors
	// stay on the pod trainers' FirstErr).
	FirstErr error

	resumes []func()
	arrived int
}

// NewShardedTrainer places one `par`-shaped job in every pod and wires the
// cross-pod coordinator. Every pod runs the same model and parallelism, so
// the ensemble stays symmetric — the common production shape.
func NewShardedTrainer(sc *ShardedCluster, m ModelSpec, par Parallelism) (*ShardedTrainer, error) {
	st := &ShardedTrainer{SC: sc, resumes: make([]func(), len(sc.Pods))}
	var leaders []int
	for pod, pc := range sc.Pods {
		tr, err := placeTrainer(pc, m, par, nil)
		if err != nil {
			return nil, fmt.Errorf("hpn: pod %d: %w", pod, err)
		}
		p := pod
		tr.IterGate = func(_ int, resume func()) {
			sc.Coord.Post(p+1, 0, sim.GlobalDomain, func() { st.podArrived(p, resume) })
		}
		st.Trainers = append(st.Trainers, tr)
		leaders = append(leaders, tr.Job.Hosts[0])
		if pod == 0 {
			st.CrossBytes = tr.Job.GradientSyncBytes()
		}
	}
	g, err := collective.NewGroup(sc.Global.Net, sc.Global.CollectiveConfig(), leaders, 8)
	if err != nil {
		return nil, fmt.Errorf("hpn: cross-pod group: %w", err)
	}
	st.CrossGroup = g
	return st, nil
}

// Start schedules `iterations` training iterations on every pod. Drive the
// ensemble with sc.Run() (never the individual engines).
func (st *ShardedTrainer) Start(iterations int) error {
	for pod, tr := range st.Trainers {
		if err := tr.Start(iterations); err != nil {
			return fmt.Errorf("hpn: pod %d: %w", pod, err)
		}
	}
	return nil
}

// podArrived runs on the global engine (the global domain executes
// exclusively, so no locking): it parks the pod's resume and, once every
// pod has arrived, launches the cross-pod gradient exchange.
func (st *ShardedTrainer) podArrived(pod int, resume func()) {
	st.resumes[pod] = resume
	st.arrived++
	if st.arrived < len(st.Trainers) {
		return
	}
	st.arrived = 0
	start := st.SC.Global.Eng.Now()
	_, err := st.CrossGroup.StartAllReduce(st.CrossBytes, func(now sim.Time, _ collective.Result) {
		st.Rounds++
		st.CrossSeconds += (now - start).Seconds()
		st.resumeAll()
	})
	if err != nil {
		if st.FirstErr == nil {
			st.FirstErr = err
		}
		st.resumeAll()
	}
}

// resumeAll posts every parked resume back to its pod. The completion
// instant is >= every pod's local clock (the pods were quiescent since
// their gate posts), so deliveries land unclamped at the AllReduce's end.
func (st *ShardedTrainer) resumeAll() {
	for pod, r := range st.resumes {
		if r == nil {
			continue
		}
		st.resumes[pod] = nil
		st.SC.Coord.Post(sim.GlobalDomain, 0, pod+1, r)
	}
}
