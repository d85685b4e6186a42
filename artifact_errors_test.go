package hpn

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"hpn/internal/artifact/artifacttest"
)

// Every artifact a run exports returns the error of a writer that fails
// part way, whichever byte it fails at, and WriteArtifacts returns it
// naming the exporter.
func TestArtifactWriteErrorsSurface(t *testing.T) {
	opt := DefaultTelemetryOptions()
	opt.Inband, opt.Health = true, true
	opt.SampleInterval = 100_000
	pod := SmallHPN(1, 8, 8)
	r, err := Scenario{HPN: &pod, Model: LLaMa13B, TP: 8, PP: 1, Hosts: 8, Iterations: 1,
		FlowLog: true, Telemetry: &opt}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}

	hub := r.Hub
	names := hub.Registry.ExporterNames()
	for _, want := range []string{"flowlog.tsv", "inband.tsv", "inband.json", "samples.csv", "incidents.tsv", "incidents.json"} {
		if !slices.Contains(names, want) {
			t.Fatalf("exporter %s not registered (have %v)", want, names)
		}
	}
	for _, name := range names {
		artifacttest.CheckErrors(t, name, func(w io.Writer) error { return hub.Registry.Export(name, w) })
	}
	artifacttest.CheckErrors(t, "metrics.json", hub.Registry.WriteJSON)
	artifacttest.CheckErrors(t, "metrics.prom", hub.Registry.WritePrometheus)
	artifacttest.CheckErrors(t, "trace.json", func(w io.Writer) error {
		_, err := hub.Tracer.WriteTo(w)
		return err
	})

	// A full disk under one artifact: /dev/full fails every write.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, "inband.json")); err != nil {
		t.Fatal(err)
	}
	_, err = r.WriteArtifacts(dir)
	if err == nil || !strings.Contains(err.Error(), "inband.json") || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("WriteArtifacts onto a full device: %v, want ENOSPC naming inband.json", err)
	}
}
