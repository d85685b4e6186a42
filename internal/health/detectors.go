package health

import (
	"fmt"
	"math"
	"math/bits"

	"hpn/internal/hashing"
	"hpn/internal/netsim"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

// --- Link-flap detector (paper Fig. 18) -------------------------------
//
// A transition is one up/down edge of a cable or switch. The paper's
// operational experience is 5K-60K flap events per day fleet-wide; a
// single transition is routine, a train of them on one subject inside
// flapWindow is a flap storm that keeps re-triggering convergence.

type flapState struct {
	subject string
	times   []sim.Time // transitions inside the window, ascending
	total   int        // transitions since the open incident started (reset on close)
}

func (m *Monitor) noteTransition(now sim.Time, subject string, up bool) {
	i, ok := m.flapIdx[subject]
	if !ok {
		i = len(m.flapList)
		m.flapIdx[subject] = i
		m.flapList = append(m.flapList, &flapState{subject: subject})
	}
	fs := m.flapList[i]
	fs.times = append(fs.times, now)
	fs.prune(now, flapWindow)
	fs.total++
	if len(fs.times) < flapThreshold {
		return
	}
	inc := m.openIncident(KindFlap, subject, fs.times[0],
		fmt.Sprintf("%d transitions within %v", len(fs.times), flapWindow))
	inc.Events = fs.total
	if r := float64(len(fs.times)); r > inc.Peak {
		inc.Peak = r
	}
}

func (fs *flapState) prune(now sim.Time, window sim.Time) {
	cut := 0
	for cut < len(fs.times) && fs.times[cut] <= now-window {
		cut++
	}
	if cut > 0 {
		fs.times = append(fs.times[:0], fs.times[cut:]...)
	}
}

// sweepFlap closes storm incidents once their subject has been quiet for a
// full window.
func (m *Monitor) sweepFlap(now sim.Time) {
	for _, fs := range m.flapList {
		fs.prune(now, flapWindow)
		if len(fs.times) == 0 {
			if _, open := m.openIdx[incKey{KindFlap, fs.subject}]; open {
				m.closeIncident(KindFlap, fs.subject, now)
				fs.total = 0
			}
		}
	}
}

// --- Stuck/stalled-flow detector --------------------------------------
//
// Complements the failure watchdog: the watchdog emulates the ~90s NCCL
// timeout that kills the job, this detector reports blackholed flows
// within seconds so the timeline shows the exposure window that reroutes
// (or the watchdog) eventually resolve.

func (m *Monitor) sweepStall(now sim.Time) {
	const subject = "fabric"
	n := m.Net.StalledFlows()
	if n == 0 {
		if m.stalling {
			m.stalling = false
			m.closeIncident(KindStall, subject, now)
		}
		return
	}
	if !m.stalling {
		m.stalling = true
		m.stallSince = now
	}
	_, open := m.openIdx[incKey{KindStall, subject}]
	if !open && now-m.stallSince < stallAfter {
		return
	}
	inc := m.openIncident(KindStall, subject, m.stallSince, "flows blackholed awaiting reconvergence")
	inc.Events++ // one per tick observed stalled
	if f := float64(n); f > inc.Peak {
		inc.Peak = f
	}
}

// --- Live ECMP polarization detector ----------------------------------
//
// Streams the hash decisions of every routed path into per-(switch, group)
// bucket loads and judges them with hashing.RatioImbalance — the same
// metric the offline hpnview analysis applies to dumped in-band records,
// evaluated online instead. Distinct 5-tuples are counted once per group
// (a reroute or retransmit of the same tuple lands in the same bucket by
// construction and carries no new information).

type groupKey struct {
	node  topo.NodeID
	size  int
	down  bool
	plane int
}

type groupState struct {
	key     groupKey
	subject string
	counts  []float64
	seen    map[uint64]struct{} // tuple words already counted
	mass    int
}

// notePath streams one routed path's hash decisions into the per-group
// bucket loads, judging any group whose distinct-tuple mass crosses the
// floor. now is the caller-observed routing time: during memo replay the
// engine clock is not yet advanced, so the passed time — not Eng.Now() —
// must stamp any incident opened here.
func (m *Monitor) notePath(now sim.Time, f *netsim.FlowState, hops []route.HopDecision) {
	for i := range hops {
		h := &hops[i]
		if !judged(h) {
			continue
		}
		k := m.groupOf(h)
		gi, ok := m.groupIdx[k]
		if !ok {
			gi = len(m.groupList)
			m.groupIdx[k] = gi
			dir := "up"
			if h.Down {
				dir = "down"
			}
			m.groupList = append(m.groupList, &groupState{
				key:     k,
				subject: fmt.Sprintf("%s/%s%d", m.Net.Top.Node(h.Node).Name, dir, h.Group),
				counts:  make([]float64, h.Group),
				seen:    map[uint64]struct{}{},
			})
		}
		gs := m.groupList[gi]
		w := f.Tuple
		if _, dup := gs.seen[w]; dup {
			continue
		}
		gs.seen[w] = struct{}{}
		if h.Bucket >= 0 && h.Bucket < len(gs.counts) {
			gs.counts[h.Bucket]++
			gs.mass++
			m.judgePolarization(now, gs)
		}
	}
}

// judged reports whether a hop decision feeds the polarization detector.
// Per-port Core hashing is deliberately tuple-independent; its fallback
// mode and non-hashed hops carry no polarization signal.
func judged(h *route.HopDecision) bool {
	return h.Hashed && !h.PerPort && !h.Fallback && h.Group >= 2
}

// groupOf returns the ECMP group a judged hop decision was made in.
func (m *Monitor) groupOf(h *route.HopDecision) groupKey {
	return groupKey{node: h.Node, size: h.Group, down: h.Down, plane: m.Net.Top.Link(h.Link).Plane}
}

// judgePolarization judges one group if it has enough distinct-tuple mass.
// The mass floor scales with group size (coupon-collector: a fair hash
// needs ~k ln k tuples to touch every one of k buckets, so judging early
// would read sampling noise as starvation).
func (m *Monitor) judgePolarization(now sim.Time, gs *groupState) {
	need := polarizationMinFlows
	if scaled := 6 * gs.key.size; scaled > need {
		need = scaled
	}
	if gs.mass < need {
		return
	}
	ratio := hashing.RatioImbalance(gs.counts, polarizationCap)
	if ratio >= polarizationRatio {
		inc := m.openIncident(KindPolarization, gs.subject, now,
			fmt.Sprintf("ECMP bucket loads skewed over %d members", gs.key.size))
		inc.Events = gs.mass
		if ratio > inc.Peak {
			inc.Peak = ratio
		}
		m.armTick()
	} else {
		m.closeIncident(KindPolarization, gs.subject, now)
	}
}

// sweepPolarization re-judges every group; the streaming path already
// judges on each new tuple, this keeps open incidents re-evaluated (and
// closable) on the periodic tick.
func (m *Monitor) sweepPolarization(now sim.Time) {
	for _, gs := range m.groupList {
		m.judgePolarization(now, gs)
	}
}

// --- Degraded-throughput detector -------------------------------------
//
// Tracks the effective throughput (bits / completion time) of completed
// flows per power-of-two size class against the class's healthy running
// mean — the observed-vs-expected max-min rate check. A burst of flows
// finishing far below their class mean (stall survivors, polarization
// victims) opens an incident on the class.

type classState struct {
	exp     int // math.Ilogb of the class's flow sizes in bits
	subject string
	sum     rateSum // healthy-flow throughput sum
	n       int
	times   []sim.Time // recent degraded completions
	last    sim.Time
}

func (m *Monitor) noteCompletion(now sim.Time, f *netsim.FlowState) {
	rate, ok := completionRate(now, f)
	if !ok {
		return
	}
	cs := m.class(math.Ilogb(f.Bits))
	frac := math.Inf(1)
	if cs.n >= baselineFlows {
		frac = rate / cs.sum.mean(cs.n)
	}
	if frac >= degradedFraction {
		cs.sum = cs.sum.plus(rateSumOf(rate))
		cs.n++
		return
	}
	cs.times = append(cs.times, now)
	cs.last = now
	cs.pruneDegraded(now, degradedWindow)
	// A degraded completion starts windowed state that must drain (and
	// possibly an incident that must close): keep the sweep running.
	m.armTick()
	if len(cs.times) < degradedMinFlows {
		return
	}
	inc := m.openIncident(KindThroughput, cs.subject, cs.times[0],
		fmt.Sprintf("flows completing below %.0f%% of class-mean throughput", degradedFraction*100))
	inc.Events++
	// Peak records the worst slowdown factor seen (mean/observed).
	if slow := 1 / frac; slow > inc.Peak {
		inc.Peak = slow
	}
}

// completionRate returns the effective throughput of a flow completed at
// now, or ok=false for a flow the detector does not judge (no elapsed time
// or no bits). It depends only on the time between the flow's start and
// its completion, so a replayed completion has the rate of the recorded
// one.
func completionRate(now sim.Time, f *netsim.FlowState) (rate float64, ok bool) {
	d := (now - f.StartedAt).Seconds()
	if d <= 0 || f.Bits <= 0 {
		return 0, false
	}
	return f.Bits / d, true
}

// rateSum is an exact sum of throughputs: a 128-bit count of 2⁻¹² bit/s
// units. Integer addition is associative, so a class sum does not depend
// on the order its completions arrive in, and adding a window half's total
// equals adding its rates one by one. rateSumOf truncates a rate to a
// multiple of 2⁻¹² bit/s, which is exact from 2⁴⁰ bit/s up, and counts a
// rate of 2⁶⁴ bit/s or more as 2⁶⁴ − 2⁻¹² bit/s; no simulated link comes
// near either end. 2⁵² rates sum without overflow.
type rateSum struct{ hi, lo uint64 }

// rateSumOf returns rate as a one-term sum; a rate that is not positive
// counts as zero. Each conversion below is exact: scaling by 2¹² only
// moves the exponent, and a rate from 2⁵² bit/s up is an integer.
func rateSumOf(rate float64) rateSum {
	switch {
	case !(rate > 0):
		return rateSum{}
	case rate < 0x1p52:
		return rateSum{lo: uint64(rate * 0x1p12)}
	case rate < 0x1p64:
		u := uint64(rate)
		return rateSum{hi: u >> 52, lo: u << 12}
	}
	return rateSum{hi: 1<<12 - 1, lo: math.MaxUint64}
}

func (a rateSum) plus(b rateSum) rateSum {
	lo, carry := bits.Add64(a.lo, b.lo, 0)
	hi, _ := bits.Add64(a.hi, b.hi, carry)
	return rateSum{hi, lo}
}

// mean returns the sum divided by n > 0 in bit/s. It divides the integer
// before converting it, so the mean of n equal rates is that rate as
// rateSumOf truncated it, never above it: flows at exactly half their
// class's rate are never judged below degradedFraction.
func (a rateSum) mean(n int) float64 {
	d := uint64(n)
	qhi, r := bits.Div64(0, a.hi, d)
	qlo, r := bits.Div64(r, a.lo, d)
	return (float64(qhi)*0x1p64 + float64(qlo) + float64(r)/float64(d)) * 0x1p-12
}

// class returns the size class of exponent exp, created on first sight.
func (m *Monitor) class(exp int) *classState {
	if cs := m.findClass(exp); cs != nil {
		return cs
	}
	cs := &classState{exp: exp, subject: "flows-" + classLabel(exp)}
	m.classList = append(m.classList, cs)
	return cs
}

// findClass returns the size class of exponent exp, or nil if none has
// been seen. A run sees a handful of classes, so a scan of classList
// (creation order) is cheaper than hashing the exponent on every
// completion.
func (m *Monitor) findClass(exp int) *classState {
	for _, cs := range m.classList {
		if cs.exp == exp {
			return cs
		}
	}
	return nil
}

func (cs *classState) pruneDegraded(now sim.Time, window sim.Time) {
	cut := 0
	for cut < len(cs.times) && cs.times[cut] <= now-window {
		cut++
	}
	if cut > 0 {
		cs.times = append(cs.times[:0], cs.times[cut:]...)
	}
}

// sweepThroughput closes class incidents once degraded completions stop
// arriving for a full window. Expired degraded timestamps are pruned even
// without an open incident, so a sub-threshold burst drains and lets the
// demand-armed tick disarm.
func (m *Monitor) sweepThroughput(now sim.Time) {
	for _, cs := range m.classList {
		cs.pruneDegraded(now, degradedWindow)
		if _, open := m.openIdx[incKey{KindThroughput, cs.subject}]; open && now-cs.last >= degradedWindow {
			m.closeIncident(KindThroughput, cs.subject, now)
			cs.times = cs.times[:0]
		}
	}
}

// classLabel names a power-of-two flow size class by its byte magnitude.
func classLabel(bitsExp int) string {
	k := bitsExp - 3 // bits -> bytes exponent
	switch {
	case k < 0:
		return "<1B"
	case k < 10:
		return fmt.Sprintf("%dB", 1<<k)
	case k < 20:
		return fmt.Sprintf("%dKiB", 1<<(k-10))
	case k < 30:
		return fmt.Sprintf("%dMiB", 1<<(k-20))
	case k < 40:
		return fmt.Sprintf("%dGiB", 1<<(k-30))
	default:
		return fmt.Sprintf("%dTiB", uint64(1)<<(k-40))
	}
}
