package telemetry

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"testing"

	"hpn/internal/artifact"
	"hpn/internal/artifact/artifacttest"
)

// oracleArg is an argument as the oracles take it: a key and a boxed
// value.
type oracleArg struct {
	K string
	V any
}

// traceOracle is a reference renderer a traceRig mirrors its
// emissions into.
type traceOracle interface {
	meta(pid int, kind string, tid int, name string)
	record(pid int, ph byte, tsNS, durNS int64, cat, name string, tid int, args []oracleArg)
}

// eagerTrace is the tracer as it was before it stored typed entries: it
// rendered each event when it was emitted, from boxed argument values,
// and appended the record to one buffer.
type eagerTrace struct {
	buf             []byte
	events, dropped int
	max             int
}

// start returns the buffer with the record separator appended, unless
// this is the first record.
func (o *eagerTrace) start() []byte {
	if len(o.buf) > 0 {
		return append(o.buf, ',', '\n')
	}
	return o.buf
}

func (o *eagerTrace) commit(b []byte) {
	o.buf = b
	o.events++
}

func (o *eagerTrace) meta(pid int, kind string, tid int, name string) {
	b := o.start()
	b = append(b, `{"name":"`...)
	b = append(b, kind...)
	b = append(b, `","ph":"M","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	if tid >= 0 {
		b = append(b, `,"tid":`...)
		b = strconv.AppendInt(b, int64(tid), 10)
	}
	b = append(b, `,"args":{"name":`...)
	b = artifact.AppendJSONString(b, name)
	o.commit(append(b, "}}"...))
}

func (o *eagerTrace) record(pid int, ph byte, tsNS, durNS int64, cat, name string, tid int, args []oracleArg) {
	if o.max > 0 && o.events >= o.max {
		o.dropped++
		return
	}
	b := o.start()
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
			b = artifact.AppendJSONString(b, a.K)
			b = append(b, ':')
			b = appendValue(b, a.V)
		}
		b = append(b, '}')
	}
	o.commit(append(b, '}'))
}

func (o *eagerTrace) bytes() []byte {
	return append(append(append([]byte(nil), traceHead...), o.buf...), traceTail...)
}

// appendValue renders a boxed argument value as the eager tracer did.
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

// traceRig emits through a tracer's views and mirrors every emission
// into an oracle. Its second view is hooked, and replay re-emits an event
// captured there through Emit.
type traceRig struct {
	views []*Tracer
	o     traceOracle
	caps  []capture
}

// capture is one event the hook saw, and how to mirror it again.
type capture struct {
	e      Entry
	args   []Value
	mirror func()
}

func newTraceRig(tr *Tracer, o traceOracle) *traceRig {
	d := &traceRig{views: []*Tracer{tr}, o: o}
	d.process("hooked").SetHook(func(e Entry, args []Value) {
		d.caps = append(d.caps, capture{e: e, args: append([]Value(nil), args...)})
	})
	return d
}

func (d *traceRig) process(name string) *Tracer {
	v := d.views[0].Process(name)
	d.o.meta(v.pid, "process_name", -1, name)
	d.views = append(d.views, v)
	return v
}

// mirror records an event just emitted on v into the oracle, and keeps
// the record with the capture when v is hooked.
func (d *traceRig) mirror(v *Tracer, rec func()) {
	rec()
	if v.hook != nil {
		d.caps[len(d.caps)-1].mirror = rec
	}
}

func (d *traceRig) complete(v *Tracer, ts, dur int64, cat, name string, tid int, args []Arg, want []oracleArg) {
	v.Complete(ts, dur, cat, name, tid, args...)
	d.mirror(v, func() { d.o.record(v.pid, 'X', ts, dur, cat, name, tid, want) })
}

func (d *traceRig) instant(v *Tracer, ts int64, cat, name string, tid int, args []Arg, want []oracleArg) {
	v.Instant(ts, cat, name, tid, args...)
	d.mirror(v, func() { d.o.record(v.pid, 'i', ts, -1, cat, name, tid, want) })
}

func (d *traceRig) counter(v *Tracer, ts int64, name string, x float64) {
	v.Counter(ts, name, x)
	d.mirror(v, func() { d.o.record(v.pid, 'C', ts, -1, "", name, 0, []oracleArg{{"value", x}}) })
}

func (d *traceRig) thread(v *Tracer, tid int, name string) {
	v.NameThread(tid, name)
	d.o.meta(v.pid, "thread_name", tid, name)
}

// replay re-emits capture i (modulo their number) through Emit on the
// hooked view.
func (d *traceRig) replay(i int) {
	if len(d.caps) == 0 {
		return
	}
	c := d.caps[i%len(d.caps)]
	d.views[1].Emit(c.e, c.args)
	c.mirror()
}

// fuzzInput decodes typed trace emissions from fuzz bytes; past the end
// it reads zeros.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

func (in *fuzzInput) u64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = in.byte()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// str returns an edge string, or up to 15 raw bytes.
func (in *fuzzInput) str() string {
	n := in.byte()
	if n&0x80 != 0 {
		return artifacttest.Strings[int(n&0x7f)%len(artifacttest.Strings)]
	}
	b := make([]byte, n%16)
	for i := range b {
		b[i] = in.byte()
	}
	return string(b)
}

// float returns a finite float: NaN and the infinities render as bare
// words, which no JSON renderer of this trace could make valid.
func (in *fuzzInput) float() float64 {
	x := math.Float64frombits(in.u64())
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// args decodes up to four arguments of every kind.
func (in *fuzzInput) args() ([]Arg, []oracleArg) {
	n := int(in.byte() % 5)
	args, want := make([]Arg, n), make([]oracleArg, n)
	for i := range args {
		k := in.str()
		switch in.byte() % 6 {
		case 0:
			v := int64(in.u64())
			args[i], want[i] = Int(k, v), oracleArg{k, v}
		case 1:
			v := in.u64()
			args[i], want[i] = Uint(k, v), oracleArg{k, v}
		case 2:
			v := in.float()
			args[i], want[i] = Float(k, v), oracleArg{k, v}
		case 3:
			v := in.byte()&1 == 1
			args[i], want[i] = Bool(k, v), oracleArg{k, v}
		case 4:
			v := in.str()
			args[i], want[i] = Str(k, v), oracleArg{k, v}
		default:
			h, nic := int(int32(in.u64())), int(int8(in.byte()))
			args[i], want[i] = Endpoint(k, h, nic), oracleArg{k, fmt.Sprintf("%d:%d", h, nic)}
		}
	}
	return args, want
}

// FuzzTracerMatchesOracle decodes typed emissions — spans, instants,
// counters, replays through Emit, thread and process names — under an
// event cap of 0, 1 or N, and holds the rendered trace to the eager
// renderer's bytes, counts and JSON validity.
func FuzzTracerMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 0x80, 0x83, 0x87, 3, 0, 0x8b, 4, 0x8c, 5, 0x89, 5, 1, 2, 3})
	f.Add([]byte{1, 2, 0, 3, 0, 3, 1, 4, 0, 5, 'p', 6, 1, 7, 2})
	f.Add([]byte("\x02\x05\x00\x00aaaaaaaa\x04\x00\x01\x02\x03\x04\x05\x03\x03\x03\x01\x01\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		max := int(in.byte() % 3)
		if max == 2 {
			max += int(in.byte() % 30)
		}
		tr := NewTracer(max)
		o := &eagerTrace{max: max}
		d := newTraceRig(tr, o)
		for ops := 0; len(in) > 0 && ops < 400; ops++ {
			v := d.views[int(in.byte())%len(d.views)]
			switch in.byte() % 6 {
			case 0:
				ts, dur := int64(in.u64()), int64(in.u64())
				cat, name, tid := in.str(), in.str(), int(in.byte())
				args, want := in.args()
				d.complete(v, ts, dur, cat, name, tid, args, want)
			case 1:
				ts, cat, name, tid := int64(in.u64()), in.str(), in.str(), int(in.byte())
				args, want := in.args()
				d.instant(v, ts, cat, name, tid, args, want)
			case 2:
				d.counter(v, int64(in.u64()), in.str(), in.float())
			case 3:
				d.replay(int(in.byte()))
			case 4:
				d.thread(v, int(int8(in.byte())), in.str())
			default:
				if len(d.views) < 6 {
					d.process(in.str())
				}
			}
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("trace is not valid JSON:\n%s", buf.Bytes())
		}
		if want := o.bytes(); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("trace differs from the eager renderer:\n got %s\nwant %s", buf.Bytes(), want)
		}
		if tr.Events() != o.events || tr.Dropped() != o.dropped {
			t.Fatalf("events/dropped %d/%d, eager %d/%d", tr.Events(), tr.Dropped(), o.events, o.dropped)
		}
	})
}
