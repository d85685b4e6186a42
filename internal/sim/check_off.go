//go:build !hpncheck

package sim

// checked reports whether pooled handles are checked (the hpncheck build
// tag; see check_on.go). In this build released events are recycled and
// the hooks below compile to nothing.
const checked = false

// release returns a fired event to the free list, up to eventPoolCap. fn
// is dropped so the closure's captures are collectable while the shell
// waits in the pool.
func (e *Engine) release(ev *Event) {
	if len(e.free) < eventPoolCap {
		ev.fn = nil
		e.free = append(e.free, ev)
	}
}

// live is the use-after-release check; unchecked builds skip it.
func (ev *Event) live(op string) {}
