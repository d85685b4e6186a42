// Package telemetry is the fabric-wide observability substrate every layer
// emits into: a span/instant-event Tracer whose output is Chrome
// trace-event JSON (loadable in chrome://tracing or Perfetto), a periodic
// Sampler that snapshots fabric state into bounded ring-buffer series, and
// a counter/gauge Registry with Prometheus-text and JSON exporters.
//
// The package depends only on the standard library (plus the sibling
// metrics package for series types). All timestamps are virtual-clock
// nanoseconds, never wall time, so every artifact is deterministic for a
// fixed seed and diffable across runs.
//
// Every Tracer method is safe on a nil receiver: a disabled tracer costs
// exactly one nil check at each emission point.
package telemetry

import (
	"io"
	"math"
	"strconv"
	"sync"
	"unsafe"

	"hpn/internal/artifact"
	"hpn/internal/chunk"
)

// Thread IDs partition trace events by emitting layer. Collective groups
// allocate their own IDs starting at TidCollectiveBase so concurrent
// groups render on separate tracks.
const (
	TidSim            = 1
	TidNetsim         = 2
	TidRoute          = 3
	TidWorkload       = 4
	TidFailure        = 5
	TidInband         = 6
	TidCollectiveBase = 16
)

// Kind is the type of a trace argument's value.
type Kind uint8

const (
	KindInt      Kind = iota // rendered as a JSON integer
	KindUint                 // rendered as a JSON integer
	KindFloat                // rendered with strconv's 'g' format
	KindBool                 // true or false
	KindString               // a JSON string
	KindEndpoint             // a host:NIC pair, rendered as the string "h:n"
)

// Arg is one key/value attachment on a trace event, made by Int, Uint,
// Float, Bool, Str or Endpoint. It holds no boxed value: an emission
// stores it as a Value, with its key and any string value interned.
type Arg struct {
	key, str string
	bits     uint64
	kind     Kind
}

// Int returns an integer argument.
func Int(k string, v int64) Arg { return Arg{key: k, bits: uint64(v), kind: KindInt} }

// Uint returns an unsigned integer argument.
func Uint(k string, v uint64) Arg { return Arg{key: k, bits: v, kind: KindUint} }

// Float returns a floating-point argument.
func Float(k string, v float64) Arg { return Arg{key: k, bits: math.Float64bits(v), kind: KindFloat} }

// Bool returns a boolean argument.
func Bool(k string, v bool) Arg {
	a := Arg{key: k, kind: KindBool}
	if v {
		a.bits = 1
	}
	return a
}

// Str returns a string argument.
func Str(k, v string) Arg { return Arg{key: k, str: v, kind: KindString} }

// Endpoint returns a host:NIC argument, rendered as the string "host:nic".
func Endpoint(k string, host, nic int) Arg {
	return Arg{key: k, bits: uint64(uint32(int32(host)))<<32 | uint64(uint32(int32(nic))), kind: KindEndpoint}
}

// Value is one stored argument: its interned key, its kind and its value
// in eight bytes (an interned string's id for KindString).
type Value struct {
	Key  uint32
	Kind Kind
	Bits uint64
}

// Entry is one stored trace event. Its arguments are the Args() values
// stored right after those of the entry before it, so an entry needs no
// offset. Strings are ids into the tracer's intern table, so an Entry and
// its Values hold no pointer and the store's chunks are never scanned by
// the garbage collector.
type Entry struct {
	// TS is the event's virtual time in nanoseconds.
	TS int64
	// val is a span's duration (< 0: none), or a counter's value bits.
	val       int64
	pid, tid  int32
	name, cat uint32
	nargs     uint32
	ph        byte
}

// Args returns the number of arguments stored with the entry.
func (e Entry) Args() int { return int(e.nargs) }

// traceCore is the storage shared by every per-process Tracer view.
type traceCore struct {
	mu      sync.Mutex
	entries chunk.Store[Entry]
	args    chunk.Store[Value]
	// strs holds every interned string by id; id 0 is "".
	strs []string
	ids  map[string]uint32
	// recent caches intern results by the address of a string's bytes:
	// emitters pass the same constant keys and names again and again, and
	// comparing a string with itself costs no more than comparing lengths
	// and addresses.
	recent  [256]interned
	max     int // 0 = unbounded
	dropped int
	nextPid int
}

type interned struct {
	s  string
	id uint32
}

// intern returns s's id, adding it to the table. Callers hold the lock.
func (c *traceCore) intern(s string) uint32 {
	if s == "" {
		return 0
	}
	r := &c.recent[uintptr(unsafe.Pointer(unsafe.StringData(s)))>>3%uintptr(len(c.recent))]
	if r.s == s {
		return r.id
	}
	id, ok := c.ids[s]
	if !ok {
		id = uint32(len(c.strs))
		c.strs = append(c.strs, s)
		c.ids[s] = id
	}
	*r = interned{s, id}
	return id
}

// full reports whether the event cap is reached. Callers hold the lock.
func (c *traceCore) full() bool { return c.max > 0 && c.entries.Len() >= c.max }

// put stores e with its arguments, or counts it as dropped past the cap.
// Callers hold the lock.
func (c *traceCore) put(e Entry, args []Value) {
	if c.full() {
		c.dropped++
		return
	}
	c.entries.Append(e)
	for _, v := range args {
		c.args.Append(v)
	}
}

// Tracer records trace events for one process (pid) of the trace. Views
// for additional processes — e.g. one per cluster in a multi-cluster
// sweep — share the same store via Process.
type Tracer struct {
	core *traceCore
	pid  int
	// hook, when set, observes every event emitted through this view, as
	// stored (and also past the event cap, so capture sees exactly what
	// the emitter sent). Replay via Emit bypasses the hook, so a recorder
	// never captures its own re-emissions.
	hook func(e Entry, args []Value)
	// vals holds the arguments of the event being emitted.
	vals []Value
}

// NewTracer returns a tracer for pid 1 with the given event cap
// (0 = unbounded). Once the cap is reached further events are counted as
// dropped rather than recorded.
func NewTracer(maxEvents int) *Tracer {
	c := &traceCore{max: maxEvents, nextPid: 1, strs: []string{""}, ids: map[string]uint32{}}
	return &Tracer{core: c, pid: 1}
}

// Process allocates the next pid, names it, and returns a tracer view for
// it sharing this tracer's store. Nil-safe.
func (t *Tracer) Process(name string) *Tracer {
	if t == nil {
		return nil
	}
	t.core.mu.Lock()
	t.core.nextPid++
	pid := t.core.nextPid - 1
	t.core.mu.Unlock()
	v := &Tracer{core: t.core, pid: pid}
	v.NameProcess(name)
	return v
}

// Complete records a complete ("X") span: [tsNS, tsNS+durNS) on the given
// thread track. Nil-safe.
func (t *Tracer) Complete(tsNS, durNS int64, cat, name string, tid int, args ...Arg) {
	if t == nil {
		return
	}
	t.emit('X', tsNS, durNS, cat, name, tid, args)
}

// Instant records an instant ("i") event at tsNS. Nil-safe.
func (t *Tracer) Instant(tsNS int64, cat, name string, tid int, args ...Arg) {
	if t == nil {
		return
	}
	t.emit('i', tsNS, -1, cat, name, tid, args)
}

// Counter records a counter ("C") sample, rendered as a value track. The
// value is stored in the entry itself. Nil-safe.
func (t *Tracer) Counter(tsNS int64, name string, v float64) {
	if t == nil {
		return
	}
	t.emit('C', tsNS, int64(math.Float64bits(v)), "", name, 0, nil)
}

// NameProcess emits the process_name metadata record for this view's pid.
// Nil-safe.
func (t *Tracer) NameProcess(name string) {
	if t == nil {
		return
	}
	t.meta("process_name", -1, name)
}

// NameThread emits the thread_name metadata record for tid. Nil-safe.
func (t *Tracer) NameThread(tid int, name string) {
	if t == nil {
		return
	}
	t.meta("thread_name", tid, name)
}

// Events returns the number of recorded events (0 on nil).
func (t *Tracer) Events() int {
	if t == nil {
		return 0
	}
	t.core.mu.Lock()
	defer t.core.mu.Unlock()
	return t.core.entries.Len()
}

// Dropped returns the number of events discarded past the cap.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	t.core.mu.Lock()
	defer t.core.mu.Unlock()
	return t.core.dropped
}

// SetHook installs (or, with nil, removes) the capture hook for this view.
// The hook runs synchronously on the emitting goroutine, after the event
// is stored and outside the tracer's lock; the args slice is valid only
// during the call. A hooked view is used by one goroutine at a time.
// Nil-safe.
func (t *Tracer) SetHook(fn func(e Entry, args []Value)) {
	if t == nil {
		return
	}
	t.hook = fn
}

// Key returns the id under which arguments keyed k are stored in the
// Values a hook receives. Nil-safe.
func (t *Tracer) Key(k string) uint32 {
	if t == nil {
		return 0
	}
	t.core.mu.Lock()
	defer t.core.mu.Unlock()
	return t.core.intern(k)
}

// Emit stores one event captured by a hook on this view, bypassing the
// hook. It applies the same event cap as live emission, so a replayed
// stream drops (or keeps) exactly the events the original run would have.
// Nil-safe.
func (t *Tracer) Emit(e Entry, args []Value) {
	if t == nil {
		return
	}
	e.pid, e.nargs = int32(t.pid), uint32(len(args))
	t.core.mu.Lock()
	t.core.put(e, args)
	t.core.mu.Unlock()
}

// meta stores a metadata ("M") record: name holds the kind, cat the
// process or thread name, and tid < 0 omits the tid field. Metadata
// records are not subject to the event cap.
func (t *Tracer) meta(kind string, tid int, name string) {
	c := t.core
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.Append(Entry{ph: 'M', pid: int32(t.pid), tid: int32(tid), name: c.intern(kind), cat: c.intern(name)})
}

// emit stores one live event, whose val field is val, with its
// arguments, then hands it to the capture hook.
func (t *Tracer) emit(ph byte, tsNS, val int64, cat, name string, tid int, args []Arg) {
	c := t.core
	c.mu.Lock()
	if t.hook == nil && c.full() {
		c.dropped++
		c.mu.Unlock()
		return
	}
	vals := t.vals[:0]
	for _, a := range args {
		v := Value{Key: c.intern(a.key), Kind: a.kind, Bits: a.bits}
		if a.kind == KindString {
			v.Bits = uint64(c.intern(a.str))
		}
		vals = append(vals, v)
	}
	t.vals = vals
	e := Entry{TS: tsNS, val: val, pid: int32(t.pid), tid: int32(tid),
		name: c.intern(name), cat: c.intern(cat), nargs: uint32(len(vals)), ph: ph}
	c.put(e, vals)
	c.mu.Unlock()
	if t.hook != nil {
		t.hook(e, vals)
	}
}

// The Chrome trace-event JSON object around the rendered records.
var (
	traceHead = []byte(`{"displayTimeUnit":"ns","traceEvents":[` + "\n")
	traceTail = []byte("\n]}\n")
)

// WriteTo renders the whole trace as a Chrome trace-event JSON object. It
// renders the events stored when it is called, from a snapshot of the
// store taken under the lock; events stored meanwhile are left out. On a
// nil tracer it writes an empty (still valid) trace.
func (t *Tracer) WriteTo(w io.Writer) (int64, error) {
	var r traceRenderer
	if t != nil {
		c := t.core
		c.mu.Lock()
		r.entries, r.args, r.strs = c.entries.Chunks(), c.args.Chunks(), c.strs
		c.mu.Unlock()
	}
	return r.writeTo(w)
}

// traceRenderer renders a snapshot of a trace store.
type traceRenderer struct {
	entries [][]Entry
	args    [][]Value
	strs    []string
	// quoted holds every interned string rendered as a JSON string, the
	// id-th ending at ends[id].
	quoted []byte
	ends   []int
	// ac and ai locate the next argument to render.
	ac, ai int
}

// renderFlush is the rendered size at which the renderer hands its buffer
// to the writer.
const renderFlush = 32 << 10

func (r *traceRenderer) writeTo(w io.Writer) (int64, error) {
	for _, s := range r.strs {
		r.quoted = artifact.AppendJSONString(r.quoted, s)
		r.ends = append(r.ends, len(r.quoted))
	}
	var total int64
	write := func(p []byte) error {
		n, err := w.Write(p)
		total += int64(n)
		return err
	}
	b := append(make([]byte, 0, renderFlush+renderFlush/4), traceHead...)
	first := true
	for _, c := range r.entries {
		for i := range c {
			if !first {
				b = append(b, ',', '\n')
			}
			first = false
			b = r.entry(b, &c[i])
			if len(b) >= renderFlush {
				if err := write(b); err != nil {
					return total, err
				}
				b = b[:0]
			}
		}
	}
	b = append(b, traceTail...)
	return total, write(b)
}

// str appends interned string id as a JSON string.
func (r *traceRenderer) str(b []byte, id uint32) []byte {
	start := 0
	if id > 0 {
		start = r.ends[id-1]
	}
	return append(b, r.quoted[start:r.ends[id]]...)
}

// next returns the next stored argument.
func (r *traceRenderer) next() Value {
	for r.ai == len(r.args[r.ac]) {
		r.ac++
		r.ai = 0
	}
	r.ai++
	return r.args[r.ac][r.ai-1]
}

// entry appends one event record. An event's "dur" is omitted when
// negative (instants, counters).
func (r *traceRenderer) entry(b []byte, e *Entry) []byte {
	b = append(b, `{"name":`...)
	b = r.str(b, e.name)
	if e.ph == 'M' {
		b = append(b, `,"ph":"M","pid":`...)
		b = strconv.AppendInt(b, int64(e.pid), 10)
		if e.tid >= 0 {
			b = append(b, `,"tid":`...)
			b = strconv.AppendInt(b, int64(e.tid), 10)
		}
		b = append(b, `,"args":{"name":`...)
		b = r.str(b, e.cat)
		return append(b, "}}"...)
	}
	if e.cat != 0 {
		b = append(b, `,"cat":`...)
		b = r.str(b, e.cat)
	}
	b = append(b, `,"ph":"`...)
	b = append(b, e.ph, '"')
	b = append(b, `,"ts":`...)
	b = appendMicros(b, e.TS)
	if e.ph != 'C' && e.val >= 0 {
		b = append(b, `,"dur":`...)
		b = appendMicros(b, e.val)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(e.pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(e.tid), 10)
	if e.ph == 'i' {
		b = append(b, `,"s":"t"`...) // thread-scoped instant
	}
	if e.ph == 'C' {
		b = append(b, `,"args":{"value":`...)
		b = strconv.AppendFloat(b, math.Float64frombits(uint64(e.val)), 'g', -1, 64)
		b = append(b, '}')
	} else if e.nargs > 0 {
		b = append(b, `,"args":{`...)
		for i := uint32(0); i < e.nargs; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			v := r.next()
			b = r.str(b, v.Key)
			b = append(b, ':')
			b = r.value(b, v)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// value appends a stored argument's value as deterministic JSON.
func (r *traceRenderer) value(b []byte, v Value) []byte {
	switch v.Kind {
	case KindInt:
		return strconv.AppendInt(b, int64(v.Bits), 10)
	case KindUint:
		return strconv.AppendUint(b, v.Bits, 10)
	case KindFloat:
		return strconv.AppendFloat(b, math.Float64frombits(v.Bits), 'g', -1, 64)
	case KindBool:
		return strconv.AppendBool(b, v.Bits != 0)
	case KindString:
		return r.str(b, uint32(v.Bits))
	default: // KindEndpoint
		b = append(b, '"')
		b = strconv.AppendInt(b, int64(int32(v.Bits>>32)), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(int32(v.Bits)), 10)
		return append(b, '"')
	}
}

// appendMicros renders virtual nanoseconds as the trace format's
// microsecond timestamps, keeping full ns precision (e.g. 1234 -> 1.234).
func appendMicros(b []byte, ns int64) []byte {
	if ns < 0 {
		ns = 0
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	frac := ns % 1000
	b = append(b, '.')
	b = append(b, byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	return b
}
