package hpn

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every registered experiment must run at quick scale with every
// paper-vs-measured claim holding, and print exactly its capture in
// testdata/<id>.txt. This is the repository's headline regression test: if
// a model change breaks a reproduced result, it fails here with the full
// report attached. A report is a function of the run alone, so it must
// print the same bytes bare, under a hub running the observers that watch
// the fabric (the sampler, health monitor, self-profiler and in-band
// collector, whose hop records bypass the route cache; a small record cap
// bounds memory) and under a memoizing health hub. A missing capture
// fails; after a deliberate change, refresh one with
//
//	go run ./cmd/hpnbench -exp <id> | head -n -2 > testdata/<id>.txt
//
// (hpnbench's report minus its two-line wall-time footer).
func TestAllExperimentsHoldAtQuickScale(t *testing.T) {
	observing := TelemetryOptions{SampleInterval: DefaultTelemetryOptions().SampleInterval,
		Health: true, Prof: true, Inband: true, InbandMax: 1 << 12}
	hubs := []struct {
		name string
		opt  *TelemetryOptions
	}{
		{"bare", nil},
		{"observing hub", &observing},
		{"memo and health hub", &TelemetryOptions{Memo: true, Health: true}},
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", e.ID+".txt"))
			if err != nil {
				t.Fatalf("%s has no capture: %v", e.ID, err)
			}
			for _, h := range hubs {
				env := Env{Scale: ScaleQuick}
				if h.opt != nil {
					env.Hub = NewTelemetryHub(*h.opt)
				}
				r, err := e.Run(env)
				if err != nil {
					t.Fatalf("%s (%s) failed: %v", e.ID, h.name, err)
				}
				if r.ID != e.ID {
					t.Errorf("report ID %q != experiment ID %q", r.ID, e.ID)
				}
				if len(r.Claims) == 0 {
					t.Errorf("%s reports no paper-vs-measured claims", e.ID)
				}
				for _, c := range r.Claims {
					if !c.Holds {
						t.Errorf("%s: claim %q: paper %q, measured %q — does not hold\n%s",
							h.name, c.Metric, c.Paper, c.Measured, r.String())
					}
				}
				if got := r.String(); got != string(want) {
					t.Errorf("%s report (%s) differs from testdata:\n got:\n%s\nwant:\n%s", e.ID, h.name, got, want)
				}
			}
		})
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig9",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
		"tab1", "tab2", "tab3", "tab4",
		"sec7", "sec8", "sec42", "sec61a", "sec61b", "appd",
		"memo", "multipod",
	}
	have := map[string]bool{}
	for _, e := range Experiments() {
		have[e.ID] = true
		if e.Title == "" {
			t.Errorf("experiment %s has no title", e.ID)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if len(have) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(have), len(want))
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", Env{Scale: ScaleQuick}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "demo"}
	r.AddTable(Table{Title: "t", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}})
	r.AddClaim("m", "p", "v", true)
	r.AddNote("hello %d", 7)
	out := r.String()
	for _, want := range []string{"== x: demo ==", "-- t --", "HOLDS", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
	if !r.Holds() {
		t.Error("Holds() false with all claims holding")
	}
	r.AddClaim("bad", "p", "v", false)
	if r.Holds() {
		t.Error("Holds() true with a failing claim")
	}
}

func TestFacadeClusterConstruction(t *testing.T) {
	c, err := NewHPN(SmallHPN(1, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if c.Arch != ArchHPN {
		t.Fatalf("arch = %v", c.Arch)
	}
	hosts, err := c.PlaceJob(4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewCollectiveGroup(c, c.CollectiveConfig(), hosts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.AllReduce(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.BusBW <= 0 {
		t.Fatal("no busbw")
	}
	d, err := NewDCN(SmallDCN(1))
	if err != nil {
		t.Fatal(err)
	}
	if d.Arch != ArchDCN {
		t.Fatalf("arch = %v", d.Arch)
	}
}

func TestFacadeTraining(t *testing.T) {
	c, err := NewHPN(SmallHPN(1, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	hosts, err := c.PlaceJob(4)
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewJob(LLaMa13B, Parallelism{TP: 8, PP: 1, DP: 4}, hosts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(c, job)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(2); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	if tr.Iterations != 2 {
		t.Fatalf("iterations = %d", tr.Iterations)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	r, err := Run("fig5", Env{Scale: ScaleQuick})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files, err := r.WriteSeriesCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("fig5 has a series; none written")
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "t,value" || len(lines) != 13 {
		t.Fatalf("csv malformed: %d lines, header %q", len(lines), lines[0])
	}
	// A report without series writes nothing.
	r2, err := Run("tab3", Env{Scale: ScaleQuick})
	if err != nil {
		t.Fatal(err)
	}
	files2, err := r2.WriteSeriesCSV(dir)
	if err != nil || files2 != nil {
		t.Fatalf("tab3 wrote %v, %v", files2, err)
	}
}
