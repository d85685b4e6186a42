package workload

import (
	"fmt"
	"math"

	"hpn/internal/collective"
	"hpn/internal/memo"
	"hpn/internal/metrics"
	"hpn/internal/netsim"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/telemetry"
)

// Job is a training job: a model plus its parallelism and the hosts it
// occupies. The canonical Megatron-style placement is assumed: TP groups
// fill a host's 8 GPUs (NVLink domain), PP stages are consecutive host
// blocks, DP replicas repeat the block.
type Job struct {
	Model ModelSpec
	Par   Parallelism
	// Hosts is the ordered host list; length must equal GPUs()/8.
	Hosts []int
}

// NewJob checks shape consistency and returns the job.
func NewJob(m ModelSpec, p Parallelism, hosts []int) (*Job, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	gpus := p.GPUs()
	if gpus%8 != 0 {
		return nil, fmt.Errorf("workload: %d GPUs not host-aligned", gpus)
	}
	if len(hosts) != gpus/8 {
		return nil, fmt.Errorf("workload: %d hosts provided, need %d", len(hosts), gpus/8)
	}
	return &Job{Model: m, Par: p, Hosts: hosts}, nil
}

// DPGroups returns the host groups that synchronize gradients together.
// With TP=8 (one host per TP group), each PP stage's replicas form one DP
// group; with TP=1, hostsPerReplica = PP and gradient sync spans replicas
// stage-wise all the same.
func (j *Job) DPGroups() [][]int {
	hostsPerReplica := len(j.Hosts) / j.Par.DP
	if hostsPerReplica == 0 {
		// Replicas are sub-host (e.g. TP=1, DP=nGPUs): every host holds
		// GPUs of several replicas and all hosts synchronize together in
		// one hierarchical AllReduce.
		return [][]int{append([]int(nil), j.Hosts...)}
	}
	groups := make([][]int, 0, hostsPerReplica)
	for s := 0; s < hostsPerReplica; s++ {
		g := make([]int, 0, j.Par.DP)
		for d := 0; d < j.Par.DP; d++ {
			g = append(g, j.Hosts[d*hostsPerReplica+s])
		}
		groups = append(groups, g)
	}
	return groups
}

// PPPairs returns consecutive-stage host pairs within each replica (the
// Send/Recv endpoints).
func (j *Job) PPPairs() [][2]int {
	hostsPerReplica := len(j.Hosts) / j.Par.DP
	hostsPerStage := hostsPerReplica / j.Par.PP
	if hostsPerStage == 0 {
		return nil
	}
	var pairs [][2]int
	for d := 0; d < j.Par.DP; d++ {
		base := d * hostsPerReplica
		for s := 0; s+1 < j.Par.PP; s++ {
			a := j.Hosts[base+s*hostsPerStage]
			b := j.Hosts[base+(s+1)*hostsPerStage]
			pairs = append(pairs, [2]int{a, b})
		}
	}
	return pairs
}

// GradientSyncBytes is the per-GPU gradient message of one iteration.
func (j *Job) GradientSyncBytes() float64 { return DPVolume(j.Model, j.Par) }

// Trainer runs the job's iterations over a simulated fabric.
type Trainer struct {
	Net *netsim.Sim
	Job *Job
	Cfg collective.Config

	// groups are the per-DP-group collective groups.
	groups []*collective.Group
	// ppGroup serves pipeline sends (one group spanning all hosts is not
	// needed; sends go host-to-host directly).

	// Iterations is the completed-iteration count.
	Iterations int
	// Perf records (time, samples/s) per completed iteration.
	Perf metrics.Series
	// CommSeconds records measured gradient-sync time per iteration.
	CommSeconds metrics.Series

	// OnIteration, if set, fires after each iteration.
	OnIteration func(iter int, now sim.Time)

	// IterGate, if set, pauses the trainer between iterations: after each
	// iteration's completion bookkeeping (live or replayed) the trainer
	// calls IterGate(completedIterations, resume) instead of scheduling the
	// next compute phase, and the next iteration begins only when resume
	// runs (on this trainer's engine). The sharded multi-pod driver uses
	// this as the natural barrier of ISSUE cross-pod collectives: each pod
	// trainer posts "done" to the global domain through the gate, the
	// cross-pod gradient sync runs there while every pod is quiescent, and
	// resume is posted back. The gate is also a memoization window edge —
	// see completeIteration.
	IterGate func(iter int, resume func())

	// MicrobatchesPerIteration scales the pipeline-parallel activation
	// traffic each iteration exchanges across stage boundaries (§7). Zero
	// disables PP traffic (PP=1 jobs have none anyway).
	MicrobatchesPerIteration int

	// FirstErr records the first collective/flow launch error of the run.
	// Launch errors don't abort the iteration (the remaining groups still
	// synchronize, matching a job limping on without one ring), but they
	// must not vanish either: every one counts into
	// workload_sync_errors_total and the first is kept for the caller to
	// surface after the run.
	FirstErr error

	stopAfter   int
	running     bool
	phaseStart  sim.Time
	ctrIters    *telemetry.Counter
	ctrSyncErrs *telemetry.Counter
	histComm    *telemetry.Histogram

	// memo, when set, memoizes iteration windows: syncPhase fast-forwards
	// over cache hits and records misses (see internal/memo).
	memo       *memo.Recorder
	scheduleFP uint64
	fpCached   bool
}

// NewTrainer builds collective groups for the job over the fabric.
func NewTrainer(net *netsim.Sim, job *Job, cfg collective.Config) (*Trainer, error) {
	t := &Trainer{Net: net, Job: job, Cfg: cfg, MicrobatchesPerIteration: 8}
	t.ctrIters = net.Reg.Counter(net.MetricsPrefix+"workload_iterations_total", "completed training iterations")
	t.ctrSyncErrs = net.Reg.Counter(net.MetricsPrefix+"workload_sync_errors_total",
		"collective/flow launch errors during gradient sync")
	t.memo = memo.RecorderOf(net)
	// 1ms .. 65s in octaves: healthy gradient syncs cluster low, incidents
	// push iterations into the top buckets.
	t.histComm = net.Reg.Histogram(net.MetricsPrefix+"workload_comm_seconds",
		"per-iteration gradient-sync time distribution (s)", telemetry.LogBuckets(1e-3, 2, 17))
	for _, hosts := range job.DPGroups() {
		if len(hosts) < 2 {
			continue // DP=1: no gradient traffic
		}
		g, err := collective.NewGroup(net, cfg, hosts, 8)
		if err != nil {
			return nil, err
		}
		t.groups = append(t.groups, g)
	}
	return t, nil
}

// Start schedules `iterations` training iterations; the caller then drives
// the engine. Each iteration is [compute delay] -> [gradient sync comm] ->
// next, which produces Figure 2's periodic bursts on NIC probes. The
// recorded samples/s applies the overlap model of IterationSeconds.
func (t *Trainer) Start(iterations int) error {
	if t.running {
		return fmt.Errorf("workload: trainer already running")
	}
	if len(t.groups) == 0 {
		return fmt.Errorf("workload: job has no gradient traffic to simulate (DP=1)")
	}
	t.running = true
	t.stopAfter = t.Iterations + iterations
	t.beginIteration()
	return nil
}

func (t *Trainer) beginIteration() {
	if t.Iterations >= t.stopAfter {
		t.running = false
		return
	}
	m := t.Job.Model
	compute := ComputeSeconds(m, t.Job.Par.GPUs())
	t.phaseStart = t.Net.Eng.Now()
	t.Net.Eng.Schedule(sim.Time(compute*float64(sim.Second)), t.syncPhase)
}

// syncPhase launches gradient synchronization on every DP group
// concurrently: Multi-AllReduce when TP fills the host (all traffic
// inter-host), hierarchical AllReduce otherwise.
//
// With a memo recorder attached, each syncPhase entry is a memoization
// window boundary. The entry first finalizes the window begun by the
// previous iteration, then — as long as cached windows keep matching the
// current fabric state — fast-forwards whole iterations via replay. The
// loop stops on a cache miss (that iteration simulates live and records a
// fresh window) or when only the final iteration remains: the last one is
// always simulated so the run ends on a live, fully-settled engine.
func (t *Trainer) syncPhase() {
	start := t.Net.Eng.Now()
	t.memo.FinalizeRecord()
	record := false
	var fp uint64
	for {
		if t.Net.Trace != nil {
			t.Net.Trace.Complete(int64(t.phaseStart), int64(start-t.phaseStart),
				"workload", "compute", telemetry.TidWorkload,
				telemetry.Int("iter", int64(t.Iterations+1)))
		}
		t.phaseStart = start
		if t.memo == nil || t.stopAfter-t.Iterations < 2 {
			break
		}
		fp = t.iterFingerprint()
		w := t.memo.Lookup(fp)
		if w == nil {
			record = true
			break
		}
		t.memo.Replay(w, t.completeIterationReplay)
		if t.IterGate != nil {
			// Gated windows end at the gate (see completeIteration), so the
			// replay just landed exactly there: hand off and let resume
			// re-enter via beginIteration -> syncPhase for the next one.
			t.IterGate(t.Iterations, t.beginIteration)
			return
		}
		start = t.Net.Eng.Now()
	}
	if record {
		t.memo.BeginRecord(fp)
	}

	pending := len(t.groups)
	bytes := t.Job.GradientSyncBytes()
	done := func(now sim.Time, _ collective.Result) {
		pending--
		if pending > 0 {
			return
		}
		t.completeIteration(now - t.phaseStart)
	}
	for _, g := range t.groups {
		var err error
		if t.Job.Par.TP >= 8 {
			_, err = g.StartMultiAllReduce(bytes, done)
		} else {
			_, err = g.StartAllReduce(bytes, done)
		}
		if err != nil {
			pending--
			t.noteSyncErr(err)
		}
	}

	// Pipeline-parallel Send/Recv across stage boundaries: small volumes
	// (Table 3: ~6MB per send), exchanged in both directions (activations
	// forward, gradients backward). These are the only flows that may
	// cross pods under the §7 placement policy. Source ports are pinned per
	// (pair, rail, direction) — modeling the persistent QPs a real job
	// keeps — so every iteration hashes onto the same paths; letting the
	// fabric auto-assign would drift the sport cursor and make iterations
	// aperiodic, defeating memoization.
	//
	// All PP sends start at this instant: one rate recomputation for the
	// lot instead of one per flow. Only this loop is batched, and only when
	// it has pairs: an empty batch still recomputes, and the collectives
	// above may start no flow now (an NVLink pre-stage).
	if pairs := t.Job.PPPairs(); len(pairs) > 0 && t.MicrobatchesPerIteration > 0 {
		ppBytes := PPVolume(t.Job.Model) * float64(t.MicrobatchesPerIteration)
		ppDone := func(now sim.Time, _ *netsim.Flow) { done(now, collective.Result{}) }
		t.Net.Batch(func() {
			for pi, pair := range pairs {
				for r := 0; r < 8; r++ {
					for dir := 0; dir < 2; dir++ {
						a, b := pair[0], pair[1]
						if dir == 1 {
							a, b = b, a
						}
						pending++
						_, err := t.Net.StartFlow(
							route.Endpoint{Host: a, NIC: r},
							route.Endpoint{Host: b, NIC: r},
							ppBytes,
							netsim.FlowOpts{SrcPort: -1, Sport: ppSport(pi, r, dir), OnComplete: ppDone},
						)
						if err != nil {
							pending--
							t.noteSyncErr(err)
						}
					}
				}
			}
		})
	}
	if pending == 0 {
		t.completeIteration(0)
	}
}

// ppSport pins the transport source port of a pipeline-parallel send,
// keyed by the deterministic PPPairs order. The 28000+ range sits above
// the collective library's establishment sweep (20000+) and below
// netsim's auto-assign cursor (49152+), so pinned PP flows collide with
// neither.
func ppSport(pairIdx, rail, dir int) uint16 {
	return uint16(28000 + (pairIdx*16+rail*2+dir)%20000)
}

// noteSyncErr records a launch error without aborting the iteration.
func (t *Trainer) noteSyncErr(err error) {
	if t.FirstErr == nil {
		t.FirstErr = err
	}
	t.ctrSyncErrs.Inc()
}

// iterFingerprint keys the upcoming iteration's window: the cached static
// schedule fingerprint (collective membership/connections, PP pairing,
// volumes) mixed with the fabric's live state hash.
func (t *Trainer) iterFingerprint() uint64 {
	if !t.fpCached {
		h := netsim.NewHasher()
		h.Mix(uint64(len(t.groups)))
		for _, g := range t.groups {
			g.ScheduleFingerprint(h)
		}
		h.Mix(uint64(t.Job.Par.TP))
		h.Mix(uint64(t.Job.Par.PP))
		h.Mix(uint64(t.MicrobatchesPerIteration))
		h.Mix(math.Float64bits(t.Job.GradientSyncBytes()))
		h.Mix(math.Float64bits(PPVolume(t.Job.Model)))
		for pi, pair := range t.Job.PPPairs() {
			h.Mix(uint64(pi))
			h.Mix(uint64(pair[0]))
			h.Mix(uint64(pair[1]))
		}
		t.scheduleFP = h.Sum()
		t.fpCached = true
	}
	h := netsim.NewHasher()
	h.Mix(t.scheduleFP)
	h.Mix(t.Net.StateHash64())
	return h.Sum()
}

func (t *Trainer) completeIteration(comm sim.Time) {
	now := t.Net.Eng.Now()
	// The bookkeeping below is the window's "live section": its output
	// (iteration numbers, cumulative series) differs every iteration, so
	// replay re-executes it rather than replaying it from the cache.
	t.memo.BeginLive(now, comm.Seconds())
	t.finishIteration(now, comm.Seconds())
	t.memo.EndLive()
	if t.IterGate != nil {
		// Gate mode moves the window edge from the next syncPhase entry to
		// the gate: between the gate and resume the global domain runs
		// (cross-pod sync, resume deliveries land as engine events), none of
		// which a shard-local window could replay. The gate is a zero-delay
		// event rather than a direct call so the window closes only after
		// the completion dispatch — including the telemetry netsim emits
		// after this callback returns — has fully landed in the record;
		// replay credits the gate event's sequence number from the window.
		t.Net.Eng.Schedule(0, t.gateEvent)
		return
	}
	t.beginIteration()
}

// gateEvent is the deferred window edge of gated iterations: it finalizes
// the memo record begun at syncPhase and hands control to the coordinator.
// On replay the trainer calls IterGate directly instead — the recorded
// window already credits this event's schedule and dispatch.
func (t *Trainer) gateEvent() {
	t.memo.FinalizeRecord()
	t.IterGate(t.Iterations, t.beginIteration)
}

// completeIterationReplay is the live section of a replayed window: the
// same per-iteration bookkeeping, at the recorded completion instant, but
// no compute scheduling — the replay loop in syncPhase continues directly
// at the window's end.
func (t *Trainer) completeIterationReplay(now sim.Time, commS float64) {
	t.finishIteration(now, commS)
	t.phaseStart = now
}

// finishIteration is one iteration's completion bookkeeping, shared by
// live and replayed iterations. now is the gradient-sync completion
// instant — during replay the engine clock still reads the window start,
// so it must never consult Eng.Now().
func (t *Trainer) finishIteration(now sim.Time, commS float64) {
	t.Iterations++
	t.ctrIters.Inc()
	m := t.Job.Model
	iter := IterationSeconds(m, t.Job.Par.GPUs(), commS)
	sps := SamplesPerSecond(m, t.Job.Par.GPUs(), iter)
	t.Perf.Add(now.Seconds(), sps)
	t.CommSeconds.Add(now.Seconds(), commS)
	t.histComm.Observe(commS)
	if t.Net.Trace != nil {
		t.Net.Trace.Complete(int64(t.phaseStart), int64(now-t.phaseStart),
			"workload", "grad_sync", telemetry.TidWorkload,
			telemetry.Int("iter", int64(t.Iterations)),
			telemetry.Float("comm_s", commS))
		t.Net.Trace.Instant(int64(now), "workload", "iteration", telemetry.TidWorkload,
			telemetry.Int("iter", int64(t.Iterations)),
			telemetry.Float("samples_per_s", sps))
	}
	if t.OnIteration != nil {
		t.OnIteration(t.Iterations, now)
	}
}

// MeanSamplesPerSecond summarizes completed iterations, skipping the first
// (cold start).
func (t *Trainer) MeanSamplesPerSecond() float64 {
	if t.Perf.Len() <= 1 {
		return t.Perf.Mean()
	}
	sum := 0.0
	for _, p := range t.Perf.Points[1:] {
		sum += p.V
	}
	return sum / float64(t.Perf.Len()-1)
}
