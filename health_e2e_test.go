package hpn

import (
	"bytes"
	"reflect"
	"testing"

	"hpn/internal/failure"
	"hpn/internal/health"
	"hpn/internal/sim"
)

// healthTrainingRun trains `iters` iterations of LLaMa13B over 8 hosts of
// cfg with the online health monitor attached, and lets the caller inject
// faults once the healthy baseline exists (afterIter2 fires from the
// iteration-2 callback). Returns the monitor for verdicts.
func healthTrainingRun(t *testing.T, cfg HPNConfig, iters int, afterIter2 func(c *Cluster, now sim.Time)) *HealthMonitor {
	t.Helper()
	opt := DefaultTelemetryOptions()
	opt.Trace = false
	opt.SampleInterval = 0
	opt.Health = true
	r, err := Scenario{HPN: &cfg, Model: LLaMa13B, TP: 8, PP: 1, Hosts: 8, Iterations: iters, Telemetry: &opt}.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, tr := r.Cluster, r.Trainer
	// Build installed the monitor's attribution hook; chain after it.
	if afterIter2 != nil {
		prev := tr.OnIteration
		tr.OnIteration = func(iter int, now sim.Time) {
			if prev != nil {
				prev(iter, now)
			}
			if iter == 2 {
				afterIter2(c, now)
			}
		}
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	m := HealthMonitorOf(c)
	if m == nil {
		t.Fatal("health monitor not attached despite Options.Health")
	}
	return m
}

// A Fig. 18 flap storm on a single-ToR access cable mid-training: the
// monitor must open a flap-storm incident, attribute the comm-time
// regression of the overlapping iterations to it, and map the timeline to
// hpndoctor's incident exit code. The artifact's TSV round-trip — the
// hpndoctor input path — must give back the exact incidents and summary.
func TestHealthE2EFlapStorm(t *testing.T) {
	cfg := SmallHPN(1, 8, 8)
	cfg.DualToR = false
	cfg.DualPlane = false
	m := healthTrainingRun(t, cfg, 6, func(c *Cluster, now sim.Time) {
		in := &failure.Injector{Net: c.Net}
		// 3 down/up cycles = 6 transitions inside the 10s flap window;
		// each ~600ms outage (400ms down + 200ms recovery reroute) stalls
		// the rail and inflates the iteration's gradient-sync time.
		in.FlapLinkAt(now+10*sim.Millisecond, c.Topo.AccessLink(0, 0, 0),
			400*sim.Millisecond, 200*sim.Millisecond, 3)
	})

	// The TSV artifact is hpndoctor's input: parsing what the monitor wrote
	// must reconstruct the exact incident list and the live summary.
	var buf bytes.Buffer
	if err := m.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	incs, iters, err := health.ParseTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}

	s := m.Summary()
	if s.Flap == 0 {
		t.Fatalf("flap storm produced no flap-storm incident; summary %+v, incidents %+v",
			s, m.Incidents())
	}
	if s.ExitCode() != health.ExitIncidents {
		t.Fatalf("exit code %d, want %d (incidents); verdict %q",
			s.ExitCode(), health.ExitIncidents, s.Verdict())
	}
	if s.Regressed == 0 {
		t.Fatalf("no iteration marked regressed despite the storm; iterations %+v", iters)
	}
	if s.Attributed == 0 {
		t.Fatalf("regressed iterations have no incident attributed; iterations %+v, incidents %+v",
			iters, m.Incidents())
	}
	if !reflect.DeepEqual(incs, m.Incidents()) {
		t.Fatalf("incidents did not survive the TSV round-trip:\nwrote:  %+v\nparsed: %+v",
			m.Incidents(), incs)
	}
	if got := health.Summarize(incs, iters); got != s {
		t.Fatalf("summary from parsed timeline %+v != live summary %+v", got, s)
	}
}

// A quiet dual-ToR dual-plane run must stay verdict-clean: no incident,
// no regressed iteration, exit code 0. This pins the detectors' false
// positive rate at zero on the healthy path — the contract that makes a
// nonzero hpndoctor exit in CI meaningful.
func TestHealthE2EQuietRun(t *testing.T) {
	m := healthTrainingRun(t, SmallHPN(1, 8, 8), 4, nil)
	s := m.Summary()
	if s.Incidents != 0 {
		t.Fatalf("quiet run produced %d incidents: %+v", s.Incidents, m.Incidents())
	}
	if s.Regressed != 0 {
		t.Fatalf("quiet run marked %d iterations regressed: %+v", s.Regressed, s)
	}
	if s.ExitCode() != health.ExitHealthy {
		t.Fatalf("exit code %d, want 0; verdict %q", s.ExitCode(), s.Verdict())
	}
	if s.Iterations != 4 {
		t.Fatalf("attribution saw %d iterations, want 4", s.Iterations)
	}
}
