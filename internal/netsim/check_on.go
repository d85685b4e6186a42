//go:build hpncheck

package netsim

import (
	"fmt"
	"math"

	"hpn/internal/route"
)

// checked reports whether pooled flows are checked. Under the hpncheck
// build tag a completed flow is never reused: it is stamped with its
// release and poisoned (NaN sizes and rate, no path, negative IDs and
// times), so a field read after completion shows up as garbage and every
// netsim entry point handed the flow panics with the stamp.
const checked = true

// release stamps and poisons a completed flow instead of recycling it.
func (s *Sim) release(f *Flow) {
	nan := math.NaN()
	*f = Flow{
		ID: -1, Src: route.Endpoint{Host: -1, NIC: -1}, Dst: route.Endpoint{Host: -1, NIC: -1},
		Bits: nan, Remaining: nan, Rate: nan, Port: -1, PinnedPort: -1,
		StartedAt: -1, DoneAt: -1, index: -1,
		released: &released{id: f.ID, at: f.DoneAt},
	}
}

// live panics if f was released: op is the entry point it reached.
func (f *Flow) live(op string) {
	if f != nil && f.released != nil {
		panic(fmt.Sprintf("netsim: %s on a released flow (flow %d, completed at %v); Pin flows retained past their completion",
			op, f.released.id, f.released.at))
	}
}
