// Package failure models the fault side of the paper: production failure
// rates (Figure 5), link failure/flapping injection for the Figure 18
// scenarios, the NCCL-style stall watchdog that decides whether a training
// job survives a fault or crashes to its last checkpoint, and the crash
// economics of §2.3.
package failure

import (
	"hpn/internal/metrics"
	"hpn/internal/netsim"
	"hpn/internal/sim"
	"hpn/internal/telemetry"
	"hpn/internal/topo"
)

// Rates are the paper's production failure statistics.
type Rates struct {
	// LinkFailPerMonth: 0.057% of NIC-ToR links fail each month.
	LinkFailPerMonth float64
	// ToRCrashPerMonth: 0.051% of ToR switches hit critical errors monthly.
	ToRCrashPerMonth float64
	// FlapsPerDayLo/Hi: 5K-60K link flapping cases per day fleet-wide.
	FlapsPerDayLo, FlapsPerDayHi float64
}

// ProductionRates returns the §2.3 numbers.
func ProductionRates() Rates {
	return Rates{
		LinkFailPerMonth: 0.00057,
		ToRCrashPerMonth: 0.00051,
		FlapsPerDayLo:    5000,
		FlapsPerDayHi:    60000,
	}
}

// MonthlyLinkFailureRatios reproduces Figure 5: per-month link failure
// ratios fluctuating around the production mean.
func MonthlyLinkFailureRatios(months int, seed uint64) *metrics.Series {
	rng := sim.NewRNG(seed)
	s := &metrics.Series{Name: "link-failure-ratio"}
	mean := ProductionRates().LinkFailPerMonth
	for m := 0; m < months; m++ {
		v := mean * (0.6 + 0.8*rng.Float64())
		s.Add(float64(m), v)
	}
	return s
}

// CrashesPerMonth estimates how many fabric-fault-induced interruptions a
// job of the given size sees monthly under single-point-of-failure access
// (§2.3: "a single LLM training job would encounter 1-2 crashes each
// month"). Every host contributes 8 NIC-ToR links and a share of a ToR.
func CrashesPerMonth(hosts int, r Rates) float64 {
	links := float64(hosts * 8)
	// ~128 GPUs (16 hosts x 8 NICs) share a ToR in a non-rail fabric.
	tors := float64(hosts) / 16 * 2
	return links*r.LinkFailPerMonth + tors*r.ToRCrashPerMonth
}

// Injector schedules topology faults on a running simulation.
type Injector struct {
	Net *netsim.Sim
}

// mark timestamps each injection on the failure trace track, distinct from
// netsim's own link_down/link_up instants: the injector records intent (the
// scheduled fault), netsim records effect.
func (in *Injector) mark(name string, id int) {
	if in.Net.Trace == nil {
		return
	}
	in.Net.Trace.Instant(int64(in.Net.Eng.Now()), "failure", name,
		telemetry.TidFailure, telemetry.Int("id", int64(id)))
}

// FailLinkAt takes the cable down at the given virtual time.
func (in *Injector) FailLinkAt(at sim.Time, l topo.LinkID) {
	in.Net.Eng.ScheduleAt(at, func() {
		in.mark("inject_link_fail", int(l))
		in.Net.FailCable(l)
	})
}

// RecoverLinkAt restores the cable at the given virtual time.
func (in *Injector) RecoverLinkAt(at sim.Time, l topo.LinkID) {
	in.Net.Eng.ScheduleAt(at, func() {
		in.mark("inject_link_recover", int(l))
		in.Net.RecoverCable(l)
	})
}

// FlapLinkAt injects link flapping: `cycles` down/up transitions with the
// given dwell times, starting at `at`.
func (in *Injector) FlapLinkAt(at sim.Time, l topo.LinkID, downFor, upFor sim.Time, cycles int) {
	t := at
	for c := 0; c < cycles; c++ {
		in.FailLinkAt(t, l)
		in.RecoverLinkAt(t+downFor, l)
		t += downFor + upFor
	}
}

// Watchdog implements the collective-communication timeout: if any flow
// stays stalled continuously for longer than Timeout, the job is declared
// crashed (it must restart from checkpoint). This encodes Figure 18a's
// observation: repairs within ~1 minute let training recover; repairs
// beyond ~2 minutes kill it.
type Watchdog struct {
	Net     *netsim.Sim
	Timeout sim.Time

	crashed    bool
	crashedAt  sim.Time
	stallSince sim.Time
	stalling   bool
}

// NewWatchdog returns a watchdog with the NCCL-like default of 90 seconds.
func NewWatchdog(net *netsim.Sim) *Watchdog {
	return &Watchdog{Net: net, Timeout: 90 * sim.Second}
}

// Watch polls stall state once per second of virtual time until the
// horizon (or until a crash is declared).
func (w *Watchdog) Watch(until sim.Time) {
	var tick func()
	tick = func() {
		now := w.Net.Eng.Now()
		if w.crashed || now >= until {
			return
		}
		if w.Net.StalledFlows() > 0 {
			if !w.stalling {
				w.stalling = true
				w.stallSince = now
			} else if now-w.stallSince >= w.Timeout {
				w.crashed = true
				w.crashedAt = now
				if w.Net.Trace != nil {
					w.Net.Trace.Instant(int64(now), "failure", "watchdog_crash",
						telemetry.TidFailure,
						telemetry.Float("stalled_for_s", (now-w.stallSince).Seconds()))
				}
				return
			}
		} else {
			w.stalling = false
		}
		w.Net.Eng.Schedule(sim.Second, tick)
	}
	w.Net.Eng.Schedule(sim.Second, tick)
}

// Crashed reports whether the watchdog fired, and when.
func (w *Watchdog) Crashed() (bool, sim.Time) { return w.crashed, w.crashedAt }
