package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hpn/internal/artifact/artifacttest"
)

// The fmt-based renderers the streaming writers replaced, and the
// single-buffer tracer the chunked one replaced, kept as byte-for-byte
// references.

func oracleCSV(s *Sampler) []byte {
	var b strings.Builder
	b.WriteString("series,t_seconds,value\n")
	for _, p := range s.Probes() {
		for i := 0; i < p.Ring.Len(); i++ {
			pt := p.Ring.At(i)
			fmt.Fprintf(&b, "%s,%s,%s\n", p.Name,
				strconv.FormatFloat(pt.T, 'g', -1, 64),
				strconv.FormatFloat(pt.V, 'g', -1, 64))
		}
	}
	return []byte(b.String())
}

type oracleRow struct {
	name, help, typ string
	v               float64
}

func oracleRows(r *Registry) []oracleRow {
	var rows []oracleRow
	for _, m := range r.metrics {
		switch m.kind {
		case counterKind:
			rows = append(rows, oracleRow{m.name, m.help, "counter", float64(m.counter.Value())})
		case countKind:
			rows = append(rows, oracleRow{m.name, m.help, "counter", float64(m.count())})
		case gaugeKind:
			rows = append(rows, oracleRow{m.name, m.help, "gauge", m.gauge()})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows
}

func oracleHists(r *Registry) []metric {
	var hs []metric
	for _, m := range r.metrics {
		if m.kind == histogramKind {
			hs = append(hs, *m)
		}
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].name < hs[j].name })
	return hs
}

func oraclePrometheus(r *Registry) []byte {
	var b strings.Builder
	for _, row := range oracleRows(r) {
		name := string(appendSanitized(nil, row.name))
		if row.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, row.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, row.typ)
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(row.v, 'g', -1, 64))
		b.WriteByte('\n')
	}
	for _, h := range oracleHists(r) {
		counts, n, sumNS := histState(h.hist)
		name := string(appendSanitized(nil, h.name))
		if h.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, h.help)
		}
		fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
		cum := uint64(0)
		for i, bound := range h.hist.bounds {
			cum += counts[i]
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", name,
				strconv.FormatFloat(bound, 'g', -1, 64), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, n)
		fmt.Fprintf(&b, "%s_sum %s\n", name, strconv.FormatFloat(float64(sumNS)/1e9, 'g', -1, 64))
		fmt.Fprintf(&b, "%s_count %d\n", name, n)
	}
	return []byte(b.String())
}

func oracleMetricsJSON(r *Registry) []byte {
	rows := oracleRows(r)
	for _, h := range oracleHists(r) {
		counts, n, sumNS := histState(h.hist)
		cum := uint64(0)
		for i, b := range h.hist.bounds {
			cum += counts[i]
			rows = append(rows, oracleRow{name: h.name + "_bucket_le_" + strconv.FormatFloat(b, 'g', -1, 64), v: float64(cum)})
		}
		rows = append(rows, oracleRow{name: h.name + "_sum", v: float64(sumNS) / 1e9}, oracleRow{name: h.name + "_count", v: float64(n)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	var b strings.Builder
	b.WriteString("{\n")
	for i, row := range rows {
		b.WriteString(oracleQuote(row.name))
		b.WriteString(": ")
		b.WriteString(strconv.FormatFloat(row.v, 'g', -1, 64))
		if i+1 < len(rows) {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return []byte(b.String())
}

func oracleQuote(s string) string {
	b := []byte{'"'}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, []byte(fmt.Sprintf(`\u%04x`, c))...)
		default:
			b = append(b, c)
		}
	}
	return string(append(b, '"'))
}

// oracleTrace is the single-buffer tracer: one []byte grown by append.
type oracleTrace struct {
	buf             []byte
	events, dropped int
	max             int
}

func (o *oracleTrace) sep() {
	if len(o.buf) > 0 {
		o.buf = append(o.buf, ',', '\n')
	}
}

func (o *oracleTrace) meta(pid int, kind string, tid int, name string) {
	o.sep()
	o.buf = append(o.buf, `{"name":"`+kind+`","ph":"M","pid":`...)
	o.buf = strconv.AppendInt(o.buf, int64(pid), 10)
	if tid >= 0 {
		o.buf = append(o.buf, `,"tid":`...)
		o.buf = strconv.AppendInt(o.buf, int64(tid), 10)
	}
	o.buf = append(o.buf, `,"args":{"name":`+oracleQuote(name)+"}}"...)
	o.events++
}

func (o *oracleTrace) record(pid int, ph byte, tsNS, durNS int64, cat, name string, tid int, args []oracleArg) {
	if o.max > 0 && o.events >= o.max {
		o.dropped++
		return
	}
	o.sep()
	b := append(o.buf, `{"name":`+oracleQuote(name)...)
	if cat != "" {
		b = append(b, `,"cat":`+oracleQuote(cat)...)
	}
	b = append(b, `,"ph":"`...)
	b = append(b, ph, '"')
	b = append(b, `,"ts":`...)
	b = appendMicros(b, tsNS)
	if durNS >= 0 {
		b = append(b, `,"dur":`...)
		b = appendMicros(b, durNS)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	if ph == 'i' {
		b = append(b, `,"s":"t"`...)
	}
	if len(args) > 0 {
		b = append(b, `,"args":{`...)
		for i, a := range args {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, oracleQuote(a.K)+":"...)
			switch x := a.V.(type) {
			case string:
				b = append(b, oracleQuote(x)...)
			case bool:
				b = strconv.AppendBool(b, x)
			case int:
				b = strconv.AppendInt(b, int64(x), 10)
			case int64:
				b = strconv.AppendInt(b, x, 10)
			case uint64:
				b = strconv.AppendUint(b, x, 10)
			case float64:
				b = strconv.AppendFloat(b, x, 'g', -1, 64)
			default:
				b = append(b, oracleQuote(fmt.Sprintf("%v", x))...)
			}
		}
		b = append(b, '}')
	}
	o.buf = append(b, '}')
	o.events++
}

func (o *oracleTrace) bytes() []byte {
	return []byte(`{"displayTimeUnit":"ns","traceEvents":[` + "\n" + string(o.buf) + "\n]}\n")
}

// randomArgs returns up to three random arguments, typed for the tracer
// and boxed for the oracles.
func randomArgs(rng *rand.Rand) ([]Arg, []oracleArg) {
	n := rng.Intn(4)
	args, want := make([]Arg, n), make([]oracleArg, n)
	for i := range args {
		k := artifacttest.String(rng)
		switch rng.Intn(6) {
		case 0:
			v := artifacttest.String(rng)
			args[i], want[i] = Str(k, v), oracleArg{k, v}
		case 1:
			v := rng.Intn(2) == 0
			args[i], want[i] = Bool(k, v), oracleArg{k, v}
		case 2:
			v := artifacttest.Int64(rng)
			args[i], want[i] = Int(k, v), oracleArg{k, v}
		case 3:
			v := artifacttest.Uint64(rng)
			args[i], want[i] = Uint(k, v), oracleArg{k, v}
		case 4:
			v := artifacttest.Float(rng)
			args[i], want[i] = Float(k, v), oracleArg{k, v}
		default:
			h, nic := int(int32(artifacttest.Int64(rng))), rng.Intn(4)
			args[i], want[i] = Endpoint(k, h, nic), oracleArg{k, fmt.Sprintf("%d:%d", h, nic)}
		}
	}
	return args, want
}

// driveTrace emits n random events through tr (views of two processes,
// the second hooked) and mirrors them into the oracle.
func driveTrace(rng *rand.Rand, tr *Tracer, o *oracleTrace, n int) {
	d := newTraceRig(tr, o)
	for i := 0; i < n; i++ {
		v := d.views[rng.Intn(2)]
		ts, dur := artifacttest.Int64(rng), artifacttest.Int64(rng)
		cat, name, tid := artifacttest.String(rng), artifacttest.String(rng), rng.Intn(40)
		switch rng.Intn(5) {
		case 0:
			args, want := randomArgs(rng)
			d.complete(v, ts, dur, cat, name, tid, args, want)
		case 1:
			args, want := randomArgs(rng)
			d.instant(v, ts, cat, name, tid, args, want)
		case 2:
			d.counter(v, ts, name, artifacttest.Float(rng))
		case 3:
			d.thread(v, tid, name)
		default:
			d.replay(rng.Intn(1 << 30))
		}
	}
}

func traceBytes(t *testing.T, tr *Tracer) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("WriteTo: n=%d of %d, err %v", n, buf.Len(), err)
	}
	return buf.Bytes()
}

// The chunked tracer renders byte-for-byte what the single-buffer one did,
// across many chunks, with and without an event cap.
func TestTracerMatchesSingleBufferOracle(t *testing.T) {
	for _, max := range []int{0, 1, 500, 20_000} {
		rng := rand.New(rand.NewSource(int64(max) + 3))
		tr := NewTracer(max)
		o := &oracleTrace{max: max}
		driveTrace(rng, tr, o, 30_000)
		if got, want := traceBytes(t, tr), o.bytes(); !bytes.Equal(got, want) {
			t.Errorf("cap %d: trace differs from the single-buffer oracle (%d vs %d bytes)", max, len(got), len(want))
		}
		if tr.Events() != o.events || tr.Dropped() != o.dropped {
			t.Errorf("cap %d: events/dropped %d/%d, oracle %d/%d", max, tr.Events(), tr.Dropped(), o.events, o.dropped)
		}
		if chunks := len(tr.core.entries.Chunks()); max == 0 && chunks < 3 {
			t.Errorf("uncapped trace of %d bytes fills %d chunks, want >= 3", len(o.buf), chunks)
		}
	}
}

// A trace spanning many chunks is valid JSON, and a replay of its events
// through Emit (memo's path) gives the same bytes as live emission with or
// without a capture hook.
func TestTracerMultiChunkReplay(t *testing.T) {
	type captured struct {
		e    Entry
		args []Value
	}
	var evs []captured
	live, plain := NewTracer(0), NewTracer(0)
	live.SetHook(func(e Entry, args []Value) {
		evs = append(evs, captured{e, append([]Value(nil), args...)})
	})
	emit := func(tr *Tracer) {
		for i := 0; i < 40_000; i++ {
			ts := int64(i) * 1_234
			switch i % 3 {
			case 0:
				tr.Complete(ts, 999, "netsim", "flow", TidNetsim, Int("id", int64(i)), Float("bytes", float64(i)/3))
			case 1:
				tr.Instant(ts, "inband", "path_flush", TidInband, Int("flow", int64(i)))
			default:
				tr.Counter(ts, "tor0/up1/util_bps", float64(i)*1e9/7)
			}
		}
	}
	emit(live)
	emit(plain)
	want := traceBytes(t, live)
	if !json.Valid(want) {
		t.Fatal("multi-chunk trace is not valid JSON")
	}
	if chunks := len(live.core.entries.Chunks()); chunks < 8 {
		t.Fatalf("trace of %d events fills %d chunks, want >= 8", live.Events(), chunks)
	}
	if got := traceBytes(t, plain); !bytes.Equal(got, want) {
		t.Error("trace emitted without a hook differs from the hooked one")
	}
	for _, c := range evs {
		live.Emit(c.e, c.args)
	}
	emit(plain)
	if got, want := traceBytes(t, live), traceBytes(t, plain); !bytes.Equal(got, want) {
		t.Error("trace replayed through Emit differs from live emission")
	}
}

// WriteTo renders a snapshot taken under the lock: emitters running
// meanwhile must not race with it, and every snapshot is a valid trace.
func TestTracerWriteToWhileEmitting(t *testing.T) {
	tr := NewTracer(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := tr.Process(fmt.Sprintf("p%d", g))
			for i := 0; i < 5_000; i++ {
				v.Counter(int64(i), "active_flows", float64(i))
				v.Instant(int64(i), "netsim", "link_down", g, Int("link", int64(i)), Str("name", fmt.Sprint(i%7)))
			}
		}()
	}
	for k := 0; k < 10; k++ {
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("snapshot %d of %d bytes is not valid JSON", k, buf.Len())
		}
	}
	wg.Wait()
}

func randomRegistry(rng *rand.Rand, n int) *Registry {
	r := NewRegistry()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s_%d", artifacttest.String(rng), i)
		help := artifacttest.String(rng)
		switch rng.Intn(4) {
		case 0:
			r.Counter(name, help).add(rng.Uint64())
		case 1:
			v := rng.Uint64()
			r.CounterFunc(name, help, func() uint64 { return v })
		case 2:
			v := artifacttest.Float(rng)
			r.Gauge(name, help, func() float64 { return v })
		default:
			bounds := make([]float64, 1+rng.Intn(6))
			x := artifacttest.Float(rng)
			if math.IsNaN(x) || math.Abs(x) > 1e300 {
				x = 0
			}
			for j := range bounds {
				bounds[j] = x
				x += max(1, math.Abs(x)) * (0.5 + rng.Float64())
			}
			h := r.Histogram(name, help, bounds)
			for k := rng.Intn(20); k > 0; k-- {
				h.Observe(rng.Int63() >> (8 + rng.Intn(55)))
			}
		}
	}
	return r
}

func TestRegistryWritersMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for k := 0; k < 20; k++ {
		r := randomRegistry(rng, rng.Intn(60))
		var prom, js bytes.Buffer
		if err := r.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if want := oraclePrometheus(r); !bytes.Equal(prom.Bytes(), want) {
			t.Errorf("registry %d: Prometheus text differs from the oracle:\n got %q\nwant %q", k, prom.Bytes(), want)
		}
		if want := oracleMetricsJSON(r); !bytes.Equal(js.Bytes(), want) {
			t.Errorf("registry %d: JSON differs from the oracle:\n got %q\nwant %q", k, js.Bytes(), want)
		}
	}
}

func randomSampler(rng *rand.Rand, probes, samples int, ringCap int) *Sampler {
	s := NewSampler(1, ringCap)
	for i := 0; i < probes; i++ {
		p := s.Track(artifacttest.String(rng), func() float64 { return 0 })
		for j := 0; j < samples; j++ {
			p.Ring.Add(artifacttest.Float(rng), artifacttest.Float(rng))
		}
	}
	return s
}

func TestSamplerCSVMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 20; k++ {
		s := randomSampler(rng, rng.Intn(8), rng.Intn(300), rng.Intn(2)*100)
		var buf bytes.Buffer
		if err := s.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if want := oracleCSV(s); !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("sampler %d: CSV differs from the oracle:\n got %q\nwant %q", k, buf.Bytes(), want)
		}
	}
}

func TestWritersSurfaceErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := randomRegistry(rng, 40)
	artifacttest.CheckErrors(t, "metrics.prom", r.WritePrometheus)
	artifacttest.CheckErrors(t, "metrics.json", r.WriteJSON)
	artifacttest.CheckErrors(t, "samples.csv", randomSampler(rng, 3, 100, 0).WriteCSV)
	tr := NewTracer(0)
	driveTrace(rng, tr, &oracleTrace{}, 5_000)
	artifacttest.CheckErrors(t, "trace.json", func(w io.Writer) error {
		_, err := tr.WriteTo(w)
		return err
	})
}

func TestWritersAllocateConstant(t *testing.T) {
	registry := func(n int) *Registry {
		r := NewRegistry()
		for i := 0; i < n; i++ {
			r.Counter(fmt.Sprintf("netsim_flows_%05d", i), "flows").Inc()
			r.Gauge(fmt.Sprintf("netsim_gauge_%05d", i), "gauge", func() float64 { return 1.5 })
		}
		r.Histogram("fct_seconds", "fct", LogBuckets(1e-5, 10, 8)).Observe(1e7)
		return r
	}
	small, large := registry(10), registry(10_000)
	artifacttest.CheckAllocs(t, "metrics.prom", small.WritePrometheus, large.WritePrometheus)
	artifacttest.CheckAllocs(t, "metrics.json", small.WriteJSON, large.WriteJSON)

	sampler := func(n int) *Sampler {
		s := NewSampler(1, 0)
		p := s.Track("tor0/up1/util_bps", func() float64 { return 0 })
		for i := 0; i < n; i++ {
			p.Ring.Add(0.125, 4e9/3)
		}
		return s
	}
	artifacttest.CheckAllocs(t, "samples.csv", sampler(10).WriteCSV, sampler(10_000).WriteCSV)

	trace := func(n int) func(io.Writer) error {
		tr := NewTracer(0)
		for i := 0; i < n; i++ {
			tr.Instant(int64(i), "netsim", "link_down", TidNetsim)
		}
		return func(w io.Writer) error {
			_, err := tr.WriteTo(w)
			return err
		}
	}
	artifacttest.CheckAllocs(t, "trace.json", trace(10), trace(100_000))

	// A counter sample or an event with arguments allocates nothing but
	// its share of chunk growth.
	tr := NewTracer(0)
	if n := testing.AllocsPerRun(1000, func() { tr.Counter(5, "active_flows", 3.25) }); n > 0.01 {
		t.Errorf("Counter allocated %.3f times per sample", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tr.Complete(5, 7, "netsim", "flow", TidNetsim, Int("id", 3), Endpoint("src", 1, 0), Float("bytes", 1e6))
	}); n > 0.01 {
		t.Errorf("Complete allocated %.3f times per event", n)
	}
}
