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

// Counter is a named monotonic counter registered in a Registry. All
// methods are safe on a nil receiver, so layers hold nil counters while
// telemetry is disabled and pay one nil check per increment.
type Counter struct {
	name, help string

	mu sync.Mutex
	v  float64
}

// Inc adds 1. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d. Nil-safe.
func (c *Counter) Add(d float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.v += d
	c.mu.Unlock()
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// gauge is a read-on-export metric backed by a callback.
type gauge struct {
	help string
	fn   func() float64
}

// Registry holds counters, gauges and named artifact exporters. The zero
// value is not usable; construct with NewRegistry.
type Registry struct {
	mu            sync.Mutex
	counters      map[string]*Counter
	gauges        map[string]*gauge
	histograms    map[string]*Histogram
	exporters     map[string]func(io.Writer) error
	exporterOrder []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*gauge{},
		histograms: map[string]*Histogram{},
		exporters:  map[string]func(io.Writer) error{},
	}
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
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help}
	r.counters[name] = c
	return c
}

// Gauge registers a callback-backed gauge; re-registering a name replaces
// the callback. Nil-safe.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = &gauge{help: help, fn: fn}
	r.mu.Unlock()
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

// metricRow is one resolved metric at export time.
type metricRow struct {
	name, help, typ string
	v               float64
	g               *gauge // set on gauge rows until their value is read
}

func byName(a, b metricRow) int { return strings.Compare(a.name, b.name) }

// snapshot resolves every counter and gauge to a sorted row list.
func (r *Registry) snapshot() []metricRow {
	r.mu.Lock()
	rows := make([]metricRow, 0, len(r.counters)+len(r.gauges))
	for n, c := range r.counters {
		rows = append(rows, metricRow{name: n, help: c.help, typ: "counter", v: c.Value()})
	}
	for n, g := range r.gauges {
		rows = append(rows, metricRow{name: n, help: g.help, typ: "gauge", g: g})
	}
	r.mu.Unlock()
	slices.SortFunc(rows, byName)
	// Gauge callbacks run outside the registry lock, in name order: they
	// read simulator state and must not deadlock against registration.
	for i := range rows {
		if g := rows[i].g; g != nil {
			rows[i].v = g.fn()
		}
	}
	return rows
}

// WritePrometheus streams every counter, gauge and histogram in the
// Prometheus text exposition format, sorted by name for deterministic
// output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := artifact.NewWriter(w)
	var b []byte
	for _, row := range r.snapshot() {
		b = appendPromHeader(b[:0], row.name, row.help, row.typ)
		b = appendSanitized(b, row.name)
		b = append(b, ' ')
		b = artifact.AppendFloat(b, row.v)
		bw.Write(append(b, '\n'))
	}
	for _, h := range r.histSnapshot() {
		bounds, counts, sum, n := h.snapshot()
		b = appendPromHeader(b[:0], h.name, h.help, "histogram")
		cum := uint64(0)
		for i, bound := range bounds {
			cum += counts[i]
			b = appendSanitized(b, h.name)
			b = append(b, `_bucket{le="`...)
			b = artifact.AppendFloat(b, bound)
			b = append(b, `"} `...)
			b = strconv.AppendUint(b, cum, 10)
			b = append(b, '\n')
		}
		b = appendSanitized(b, h.name)
		b = append(b, `_bucket{le="+Inf"} `...)
		b = strconv.AppendUint(b, n, 10)
		b = append(b, '\n')
		b = appendSanitized(b, h.name)
		b = append(b, "_sum "...)
		b = artifact.AppendFloat(b, sum)
		b = append(b, '\n')
		b = appendSanitized(b, h.name)
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

// flatRows resolves every counter, gauge and flattened histogram to one
// row list sorted by name: the rows of the JSON export.
func (r *Registry) flatRows() []metricRow {
	rows := append(r.snapshot(), r.histRows()...)
	slices.SortFunc(rows, byName)
	return rows
}

// SumSuffix sums every counter, gauge and flattened histogram row (the
// rows WriteJSON writes) whose name ends in suffix. The sum runs in name
// order: float addition is not associative, so a map-order reduction
// would drift bitwise between same-seed runs. Nil-safe (returns 0).
func (r *Registry) SumSuffix(suffix string) float64 {
	if r == nil {
		return 0
	}
	var total float64
	for _, row := range r.flatRows() {
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
	rows := r.flatRows()
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
