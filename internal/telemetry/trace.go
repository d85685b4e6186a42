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
	"fmt"
	"io"
	"strconv"
	"sync"

	"hpn/internal/artifact"
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

// Arg is one key/value attachment on a trace event. Values may be string,
// bool, int, int64, uint64 or float64; anything else is rendered with %v.
type Arg struct {
	K string
	V any
}

// Trace storage is a list of chunks. The first holds firstChunk bytes and
// each next one twice its predecessor, up to chunkSize: a short trace holds
// little memory, a long one grows without ever moving a written byte.
const (
	firstChunk = 4 << 10
	chunkSize  = 1 << 20
)

// traceCore is the storage shared by every per-process Tracer view.
type traceCore struct {
	mu sync.Mutex
	// chunks hold the rendered records, separated by ",\n", in emission
	// order; every chunk but the last is full. A record may span two.
	chunks  [][]byte
	rec     []byte // the record being rendered, reused
	events  int
	max     int // 0 = unbounded
	dropped int
	nextPid int
}

// put appends p to the chunks. Callers hold the lock.
func (c *traceCore) put(p []byte) {
	for len(p) > 0 {
		n := len(c.chunks)
		if n == 0 || len(c.chunks[n-1]) == cap(c.chunks[n-1]) {
			size := firstChunk
			if n > 0 {
				size = min(2*cap(c.chunks[n-1]), chunkSize)
			}
			c.chunks = append(c.chunks, make([]byte, 0, size))
			n++
		}
		cur := c.chunks[n-1]
		k := min(len(p), cap(cur)-len(cur))
		c.chunks[n-1] = append(cur, p[:k]...)
		p = p[k:]
	}
}

// start returns the reused record buffer, holding the record separator
// unless this is the first record. Callers hold the lock.
func (c *traceCore) start() []byte {
	b := c.rec[:0]
	if len(c.chunks) > 0 {
		b = append(b, ',', '\n')
	}
	return b
}

// commit stores the record rendered into b. Callers hold the lock.
func (c *traceCore) commit(b []byte) {
	c.rec = b
	c.put(b)
	c.events++
}

// full reports whether the event cap is reached, counting the event that
// hit it as dropped. Callers hold the lock.
func (c *traceCore) full() bool {
	if c.max > 0 && c.events >= c.max {
		c.dropped++
		return true
	}
	return false
}

// Tracer records trace events for one process (pid) of the trace. Views
// for additional processes — e.g. one per cluster in a multi-cluster
// sweep — share the same buffer via Process.
type Tracer struct {
	core *traceCore
	pid  int
	// hook, when set, observes every event emitted through this view
	// before it reaches the shared buffer (and before the event cap is
	// applied, so capture sees exactly what the emitter sent). Replay via
	// Emit bypasses the hook, so a recorder never captures its own
	// re-emissions.
	hook func(ph byte, tsNS, durNS int64, cat, name string, tid int, args []Arg)
}

// NewTracer returns a tracer for pid 1 with the given event cap
// (0 = unbounded). Once the cap is reached further events are counted as
// dropped rather than recorded.
func NewTracer(maxEvents int) *Tracer {
	return &Tracer{core: &traceCore{max: maxEvents, nextPid: 1}, pid: 1}
}

// Process allocates the next pid, names it, and returns a tracer view for
// it sharing this tracer's buffer. Nil-safe.
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

// Counter records a counter ("C") sample, rendered as a value track.
// Without a capture hook the value is rendered directly, with no Arg list
// built for it. Nil-safe.
func (t *Tracer) Counter(tsNS int64, name string, v float64) {
	if t == nil {
		return
	}
	if t.hook != nil {
		t.emit('C', tsNS, -1, "", name, 0, []Arg{{K: "value", V: v}})
		return
	}
	c := t.core
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.full() {
		return
	}
	b := t.head('C', tsNS, -1, "", name, 0)
	b = append(b, `,"args":{"value":`...)
	b = strconv.AppendFloat(b, v, 'g', -1, 64)
	c.commit(append(b, "}}"...))
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
	return t.core.events
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

// The Chrome trace-event JSON object around the stored records.
var (
	traceHead = []byte(`{"displayTimeUnit":"ns","traceEvents":[` + "\n")
	traceTail = []byte("\n]}\n")
)

// WriteTo serializes the whole trace as a Chrome trace-event JSON object,
// writing the stored chunks in place. On a nil tracer it writes an empty
// (still valid) trace.
func (t *Tracer) WriteTo(w io.Writer) (int64, error) {
	parts := [][]byte{traceHead}
	if t != nil {
		// Only the chunk headers are copied: written bytes never move, and
		// later records land past the lengths copied here.
		t.core.mu.Lock()
		parts = append(parts, t.core.chunks...)
		t.core.mu.Unlock()
	}
	parts = append(parts, traceTail)
	var total int64
	for _, p := range parts {
		n, err := w.Write(p)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// SetHook installs (or, with nil, removes) the capture hook for this view.
// The hook runs synchronously on the emitting goroutine; it must not call
// back into the tracer except through Emit. Nil-safe.
func (t *Tracer) SetHook(fn func(ph byte, tsNS, durNS int64, cat, name string, tid int, args []Arg)) {
	if t == nil {
		return
	}
	t.hook = fn
}

// Emit appends one raw event, bypassing the capture hook. It applies the
// same event cap as live emission, so a replayed stream drops (or keeps)
// exactly the events the original run would have. Nil-safe.
func (t *Tracer) Emit(ph byte, tsNS, durNS int64, cat, name string, tid int, args []Arg) {
	if t == nil {
		return
	}
	t.record(ph, tsNS, durNS, cat, name, tid, args)
}

// meta emits a metadata ("M") record; tid < 0 omits the tid field.
func (t *Tracer) meta(kind string, tid int, name string) {
	c := t.core
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.start()
	b = append(b, `{"name":"`...)
	b = append(b, kind...)
	b = append(b, `","ph":"M","pid":`...)
	b = strconv.AppendInt(b, int64(t.pid), 10)
	if tid >= 0 {
		b = append(b, `,"tid":`...)
		b = strconv.AppendInt(b, int64(tid), 10)
	}
	b = append(b, `,"args":{"name":`...)
	b = artifact.AppendJSONString(b, name)
	c.commit(append(b, "}}"...))
}

// emit routes one live event through the capture hook (if any) and into
// the buffer.
func (t *Tracer) emit(ph byte, tsNS, durNS int64, cat, name string, tid int, args []Arg) {
	if t.hook != nil {
		t.hook(ph, tsNS, durNS, cat, name, tid, args)
	}
	t.record(ph, tsNS, durNS, cat, name, tid, args)
}

// record appends one event record under the core lock.
func (t *Tracer) record(ph byte, tsNS, durNS int64, cat, name string, tid int, args []Arg) {
	c := t.core
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.full() {
		return
	}
	b := t.head(ph, tsNS, durNS, cat, name, tid)
	if len(args) > 0 {
		b = append(b, `,"args":{`...)
		for i, a := range args {
			if i > 0 {
				b = append(b, ',')
			}
			b = artifact.AppendJSONString(b, a.K)
			b = append(b, ':')
			b = appendValue(b, a.V)
		}
		b = append(b, '}')
	}
	c.commit(append(b, '}'))
}

// head renders an event record up to, not including, its args and closing
// brace, into the core's record buffer. durNS < 0 omits the "dur" field
// (instants, counters). Callers hold the core lock.
func (t *Tracer) head(ph byte, tsNS, durNS int64, cat, name string, tid int) []byte {
	b := t.core.start()
	b = append(b, `{"name":`...)
	b = artifact.AppendJSONString(b, name)
	if cat != "" {
		b = append(b, `,"cat":`...)
		b = artifact.AppendJSONString(b, cat)
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
	b = strconv.AppendInt(b, int64(t.pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	if ph == 'i' {
		b = append(b, `,"s":"t"`...) // thread-scoped instant
	}
	return b
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

// appendValue renders an Arg value as deterministic JSON.
func appendValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		return artifact.AppendJSONString(b, x)
	case bool:
		return strconv.AppendBool(b, x)
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case uint64:
		return strconv.AppendUint(b, x, 10)
	case float64:
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	default:
		return artifact.AppendJSONString(b, fmt.Sprintf("%v", x))
	}
}
