package telemetry

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSamplerRingWraparound drives a bounded sampler far past its ring
// capacity: the retained window must be exactly the most recent RingCap
// samples, oldest first, with everything earlier evicted.
func TestSamplerRingWraparound(t *testing.T) {
	s := NewSampler(1, 4)
	tick := 0.0
	p := s.Track("v", func() float64 { tick++; return tick })
	for i := 0; i < 10; i++ {
		s.Sample(int64(i) * 1_000_000_000)
	}
	if p.Ring.Len() != 4 {
		t.Fatalf("ring holds %d samples, want 4", p.Ring.Len())
	}
	for i := 0; i < 4; i++ {
		pt := p.Ring.At(i)
		if want := float64(7 + i); pt.V != want {
			t.Fatalf("retained sample %d = %v, want %v (oldest-first window)", i, pt.V, want)
		}
		if want := float64(6 + i); pt.T != want {
			t.Fatalf("retained sample %d at t=%v, want %v", i, pt.T, want)
		}
	}

	var b bytes.Buffer
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("CSV has %d lines, want header + 4 retained samples:\n%s", len(lines), b.String())
	}
	if lines[1] != "v,6,7" || lines[4] != "v,9,10" {
		t.Fatalf("CSV window wrong:\n%s", b.String())
	}
}

// TestSamplerWriteCSVEmpty covers the zero-probe and zero-sample artifact:
// both must still be a valid CSV (header only), never an error.
func TestSamplerWriteCSVEmpty(t *testing.T) {
	const header = "series,t_seconds,value\n"

	noProbes := NewSampler(1, 4)
	var b bytes.Buffer
	if err := noProbes.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != header {
		t.Fatalf("zero-probe CSV = %q, want header only", b.String())
	}

	noSamples := NewSampler(1, 4)
	noSamples.Track("v", func() float64 { return 1 })
	b.Reset()
	if err := noSamples.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != header {
		t.Fatalf("zero-sample CSV = %q, want header only", b.String())
	}
}

// TestHubWriteArtifacts checks the run-directory dump: every registered
// exporter lands as one file, with path separators flattened out of
// artifact names, the root hub's in registration order and then each
// shard hub's, in the order the shard hubs were derived.
func TestHubWriteArtifacts(t *testing.T) {
	h := NewHub(Options{})
	s1, s2 := h.ShardHub(), h.ShardHub()
	for _, e := range []struct {
		hub           *Hub
		name, content string
	}{
		{h, "b.tsv", "first"},
		{s2, "c3_b.tsv", "fourth"},
		{h, "a/nested.csv", "second"},
		{s1, "c2_b.tsv", "third"},
	} {
		e.hub.Registry.RegisterExporter(e.name, func(w io.Writer) error {
			_, err := io.WriteString(w, e.content)
			return err
		})
	}
	dir := t.TempDir()
	paths, err := h.WriteArtifacts(filepath.Join(dir, "run"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, name := range []string{"b.tsv", "a_nested.csv", "c2_b.tsv", "c3_b.tsv"} {
		want = append(want, filepath.Join(dir, "run", name))
	}
	if !slices.Equal(paths, want) {
		t.Fatalf("paths = %v, want %v", paths, want)
	}
	for i, content := range []string{"first", "second", "third", "fourth"} {
		got, err := os.ReadFile(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != content {
			t.Fatalf("%s holds %q, want %q", paths[i], got, content)
		}
	}
}
