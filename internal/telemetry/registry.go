package telemetry

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"

	"hpn/internal/artifact"
)

// Counter is a monotonic integer counter registered in a Registry. All
// methods are safe on a nil receiver, so layers hold nil counters while
// telemetry is disabled and pay one nil check per increment.
type Counter struct {
	mu sync.Mutex
	v  uint64
}

// Inc adds 1. Nil-safe.
func (c *Counter) Inc() { c.add(1) }

// add adds d. Nil-safe.
func (c *Counter) add(d uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.v += d
	c.mu.Unlock()
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// kind is what a registry row holds.
type kind uint8

const (
	counterKind   kind = iota // a Counter
	countKind                 // a counter read from its owner's state at export
	gaugeKind                 // a callback read at export
	histogramKind             // a Histogram
)

// promType is each kind's Prometheus "# TYPE".
var promType = [...]string{"counter", "counter", "gauge", "histogram"}

// metric is one row of the registry table. The field its kind names is
// set; the others are nil.
type metric struct {
	name, help string
	kind       kind
	counter    *Counter
	count      func() uint64
	gauge      func() float64
	hist       *Histogram
}

// value reads a counter or gauge row. Count and gauge callbacks read
// simulator state, so it runs at export only.
func (m *metric) value() float64 {
	if m.kind == gaugeKind {
		return m.gauge()
	}
	return float64(m.total())
}

// total reads a counter row, stored or func-backed.
func (m *metric) total() uint64 {
	if m.kind == countKind {
		return m.count()
	}
	return m.counter.Value()
}

// Registry holds one table of metrics in registration order — counters,
// func-backed counters, gauges and histograms — plus named artifact
// exporters. The exports and Absorb read the table sorted by name; Values
// and AddValues walk it in order. The zero value is not usable; construct
// with NewRegistry.
type Registry struct {
	mu            sync.Mutex
	metrics       []*metric
	index         map[string]*metric
	exporters     map[string]func(io.Writer) error
	exporterOrder []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		index:     map[string]*metric{},
		exporters: map[string]func(io.Writer) error{},
	}
}

// find returns the row registered under name, or nil. A name registered
// as another kind panics: one name is one metric. Callers hold r.mu.
func (r *Registry) find(name string, k kind) *metric {
	m := r.index[name]
	if m == nil || m.kind == k {
		return m
	}
	panic(fmt.Sprintf("telemetry: metric %q is already registered as another kind", name))
}

// add appends a row to the table. Callers hold r.mu.
func (r *Registry) add(m metric) *metric {
	r.index[m.name] = &m
	r.metrics = append(r.metrics, &m)
	return &m
}

// Counter returns the counter registered under name, creating it on first
// use (the help string of the first registration wins). A nil registry
// returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.find(name, counterKind)
	if m == nil {
		m = r.add(metric{name: name, help: help, kind: counterKind, counter: &Counter{}})
	}
	return m.counter
}

// CounterFunc registers a counter whose value fn reads from its owner's
// state at export, for a count the owner already keeps; re-registering a
// name replaces the callback. It holds no state of its own, so Values
// leaves it out. Nil-safe.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.find(name, countKind); m != nil {
		m.count = fn
		return
	}
	r.add(metric{name: name, help: help, kind: countKind, count: fn})
}

// Gauge registers a callback-backed gauge; re-registering a name replaces
// the callback. Nil-safe.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.find(name, gaugeKind); m != nil {
		m.gauge = fn
		return
	}
	r.add(metric{name: name, help: help, kind: gaugeKind, gauge: fn})
}

// RegisterExporter registers a named artifact writer (a flow log, a
// sampler dump, ...). Re-registering a name replaces the writer but keeps
// its original position. Nil-safe.
func (r *Registry) RegisterExporter(name string, fn func(io.Writer) error) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	if _, ok := r.exporters[name]; !ok {
		r.exporterOrder = append(r.exporterOrder, name)
	}
	r.exporters[name] = fn
	r.mu.Unlock()
}

// ExporterNames lists registered exporters in registration order.
func (r *Registry) ExporterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.exporterOrder...)
}

// Export runs the named exporter against w.
func (r *Registry) Export(name string, w io.Writer) error {
	if r == nil {
		return fmt.Errorf("telemetry: no registry")
	}
	r.mu.Lock()
	fn := r.exporters[name]
	r.mu.Unlock()
	if fn == nil {
		return fmt.Errorf("telemetry: unknown exporter %q (have %v)", name, r.ExporterNames())
	}
	return fn(w)
}

// sorted returns a copy of the rows sorted by name, the exports' order,
// for reading outside the lock: re-registration may replace a row's
// callback.
func (r *Registry) sorted() []metric {
	r.mu.Lock()
	ms := make([]metric, len(r.metrics))
	for i, m := range r.metrics {
		ms[i] = *m
	}
	r.mu.Unlock()
	slices.SortFunc(ms, func(a, b metric) int { return strings.Compare(a.name, b.name) })
	return ms
}

// WritePrometheus streams every counter and gauge, then every histogram,
// in the Prometheus text exposition format, each group sorted by name for
// deterministic output. Callbacks run outside the registry lock, in name
// order: they read simulator state and must not deadlock against
// registration.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	ms := r.sorted()
	bw := artifact.NewWriter(w)
	var b []byte
	var vals []uint64
	for i := range ms {
		m := &ms[i]
		if m.kind == histogramKind {
			continue
		}
		b = appendPromHeader(b[:0], m.name, m.help, promType[m.kind])
		b = appendSanitized(b, m.name)
		b = append(b, ' ')
		b = artifact.AppendFloat(b, m.value())
		bw.Write(append(b, '\n'))
	}
	for i := range ms {
		m := &ms[i]
		if m.kind != histogramKind {
			continue
		}
		vals = m.hist.appendValues(vals[:0])
		n, sumNS := histTotals(vals)
		b = appendPromHeader(b[:0], m.name, m.help, "histogram")
		cum := uint64(0)
		for i, bound := range m.hist.bounds {
			cum += vals[i]
			b = appendSanitized(b, m.name)
			b = append(b, `_bucket{le="`...)
			b = artifact.AppendFloat(b, bound)
			b = append(b, `"} `...)
			b = strconv.AppendUint(b, cum, 10)
			b = append(b, '\n')
		}
		b = appendSanitized(b, m.name)
		b = append(b, `_bucket{le="+Inf"} `...)
		b = strconv.AppendUint(b, n, 10)
		b = append(b, '\n')
		b = appendSanitized(b, m.name)
		b = append(b, "_sum "...)
		b = artifact.AppendFloat(b, seconds(sumNS))
		b = append(b, '\n')
		b = appendSanitized(b, m.name)
		b = append(b, "_count "...)
		b = strconv.AppendUint(b, n, 10)
		bw.Write(append(b, '\n'))
	}
	return bw.Flush()
}

// appendPromHeader appends a metric's "# HELP" line (when it has help text)
// and its "# TYPE" line.
func appendPromHeader(b []byte, name, help, typ string) []byte {
	if help != "" {
		b = append(b, "# HELP "...)
		b = appendSanitized(b, name)
		b = append(b, ' ')
		b = append(b, help...)
		b = append(b, '\n')
	}
	b = append(b, "# TYPE "...)
	b = appendSanitized(b, name)
	b = append(b, ' ')
	b = append(b, typ...)
	return append(b, '\n')
}

// metricRow is one row of the JSON export.
type metricRow struct {
	name string
	v    float64
}

// rows resolves the table to the JSON export's rows, sorted by name:
// counters and gauges as they are, and each histogram flattened to
// cumulative `name_bucket_le_<bound>` counts plus `name_sum` (seconds)
// and `name_count`.
func (r *Registry) rows() []metricRow {
	ms := r.sorted()
	rows := make([]metricRow, 0, len(ms))
	var vals []uint64
	for i := range ms {
		m := &ms[i]
		if m.kind != histogramKind {
			rows = append(rows, metricRow{name: m.name, v: m.value()})
			continue
		}
		vals = m.hist.appendValues(vals[:0])
		n, sumNS := histTotals(vals)
		cum := uint64(0)
		for i, b := range m.hist.bounds {
			cum += vals[i]
			rows = append(rows, metricRow{
				name: m.name + "_bucket_le_" + strconv.FormatFloat(b, 'g', -1, 64),
				v:    float64(cum),
			})
		}
		rows = append(rows,
			metricRow{name: m.name + "_sum", v: seconds(sumNS)},
			metricRow{name: m.name + "_count", v: float64(n)})
	}
	slices.SortFunc(rows, func(a, b metricRow) int { return strings.Compare(a.name, b.name) })
	return rows
}

// SumSuffix sums every row WriteJSON writes whose name ends in suffix. The
// sum runs in name order: float addition is not associative, so a
// map-order reduction would drift bitwise between same-seed runs.
// Nil-safe (returns 0).
func (r *Registry) SumSuffix(suffix string) float64 {
	if r == nil {
		return 0
	}
	var total float64
	for _, row := range r.rows() {
		if strings.HasSuffix(row.name, suffix) {
			total += row.v
		}
	}
	return total
}

// WriteJSON streams every counter, gauge and (flattened) histogram as one
// sorted JSON object keyed by metric name. Histograms flatten to
// `name_bucket_le_<bound>` cumulative counts plus `name_sum`/`name_count`
// so the object stays a flat name->number map. No program calls it; it
// produces the golden determinism suite's metrics.json.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := artifact.NewWriter(w)
	bw.WriteString("{\n")
	rows := r.rows()
	var b []byte
	for i, row := range rows {
		b = artifact.AppendJSONString(b[:0], row.name)
		b = append(b, ": "...)
		b = artifact.AppendFloat(b, row.v)
		if i+1 < len(rows) {
			b = append(b, ',')
		}
		bw.Write(append(b, '\n'))
	}
	bw.WriteString("}\n")
	return bw.Flush()
}

// appendSanitized appends name to b mapped onto the Prometheus charset
// [a-zA-Z0-9_:]; everything else becomes '_'.
func appendSanitized(b []byte, name string) []byte {
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			c = '_'
		}
		b = append(b, c)
	}
	return b
}
