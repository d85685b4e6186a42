// Package artifacttest holds what the artifact writers' tests share: field
// values at the edges of every renderer (the ones where a strconv-based
// writer and its fmt-based oracle are most likely to part), a seeded
// source of random field values, and the checks every writer must pass:
// errors surface from any byte on, and the allocation count does not grow
// with the row count.
package artifacttest

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
)

// Floats are float edge values: signed zeros, the exponent switch of 'g'
// and 'f' formatting, extremes, infinities and NaN.
var Floats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.5e-7, 123456.789, 1e20, 1e21, -1e21,
	math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}

// Strings are string edge values: quotes, backslashes, control bytes,
// DEL, non-ASCII text, invalid UTF-8 and the separators of the TSV and
// CSV artifacts.
var Strings = []string{
	"", "tor0>agg1", "tor-agg", `say "hi"`, `back\slash`, "tab\there", "line\nbreak",
	"nul\x00ctl\x1f", "del\x7f", "héllo", "日本語", "\xff\xfe bad utf8", "emoji 🚀", "a,b",
}

// Int64s are integer edge values.
var Int64s = []int64{0, 1, -1, 255, 256, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}

// Uint64s are unsigned edge values; seeds and 5-tuple words span the
// whole range.
var Uint64s = []uint64{0, 1, math.MaxUint32, math.MaxInt64, math.MaxUint64}

// Float returns an edge value a third of the time, else a random one over
// many orders of magnitude.
func Float(r *rand.Rand) float64 {
	if r.Intn(3) == 0 {
		return Floats[r.Intn(len(Floats))]
	}
	return (r.Float64() - 0.25) * math.Pow(10, float64(r.Intn(40)-15))
}

// String returns an edge value half of the time, else random bytes.
func String(r *rand.Rand) string {
	if r.Intn(2) == 0 {
		return Strings[r.Intn(len(Strings))]
	}
	b := make([]byte, r.Intn(12))
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return string(b)
}

// Int64 returns an edge value a third of the time, else a random one.
func Int64(r *rand.Rand) int64 {
	if r.Intn(3) == 0 {
		return Int64s[r.Intn(len(Int64s))]
	}
	return r.Int63n(1<<40) - 1<<39
}

// Int returns Int64 as an int.
func Int(r *rand.Rand) int { return int(Int64(r)) }

// Uint64 returns an edge value a third of the time, else a random one.
func Uint64(r *rand.Rand) uint64 {
	if r.Intn(3) == 0 {
		return Uint64s[r.Intn(len(Uint64s))]
	}
	return r.Uint64()
}

// ErrFull is what a FailWriter returns once its budget is spent.
var ErrFull = errors.New("artifacttest: writer full")

// FailWriter accepts N bytes, then fails every write.
type FailWriter struct{ N int }

func (w *FailWriter) Write(p []byte) (int, error) {
	if len(p) <= w.N {
		w.N -= len(p)
		return len(p), nil
	}
	n := w.N
	w.N = 0
	return n, ErrFull
}

// CheckErrors renders write's full output, then runs it against writers
// that fail after no byte, one byte, half of it and all but the last byte,
// and reports every run that did not return ErrFull. A failure in the last
// run means a buffered stream's Flush error was dropped.
func CheckErrors(t testing.TB, name string, write func(io.Writer) error) {
	t.Helper()
	var full bytes.Buffer
	if err := write(&full); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	size := full.Len()
	if size == 0 {
		t.Fatalf("%s: wrote nothing", name)
	}
	for _, n := range []int{0, 1, size / 2, size - 1} {
		if err := write(&FailWriter{N: n}); !errors.Is(err, ErrFull) {
			t.Errorf("%s: writer failing after %d of %d bytes: got %v, want %v", name, n, size, err, ErrFull)
		}
	}
}

// CheckAllocs reports when writing the large input allocates more than
// writing the small one: a writer that streams rows through one reused
// buffer allocates a constant amount, and one that allocates per row
// fails here.
func CheckAllocs(t *testing.T, name string, small, large func(io.Writer) error) {
	t.Helper()
	run := func(write func(io.Writer) error) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := write(io.Discard); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
	}
	s, l := run(small), run(large)
	if l > s {
		t.Errorf("%s: %.0f allocations for the large input, %.0f for the small one", name, l, s)
	}
	t.Logf("%s: %.0f allocations", name, s)
}
