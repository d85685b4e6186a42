//go:build hpncheck

package sim

import (
	"fmt"
	"reflect"
	"runtime"
)

// checked reports whether pooled handles are checked. Under the hpncheck
// build tag a released event is never reused: it keeps a stamp naming its
// release, and every engine entry point handed it afterwards panics with
// that stamp instead of silently addressing an unrelated, recycled event.
const checked = true

// release stamps a fired event instead of recycling it.
func (e *Engine) release(ev *Event) {
	name := "<nil>"
	if ev.fn != nil {
		if f := runtime.FuncForPC(reflect.ValueOf(ev.fn).Pointer()); f != nil {
			name = f.Name()
		}
	}
	ev.released = &released{at: ev.at, seq: ev.seq, fn: name}
	ev.fn = nil
}

// live panics if ev was released: op is the entry point it reached.
func (ev *Event) live(op string) {
	if ev != nil && ev.released != nil {
		r := ev.released
		panic(fmt.Sprintf("sim: %s on a released event (seq %d, fired at %v, callback %s); Pin events retained past their firing",
			op, r.seq, r.at, r.fn))
	}
}
