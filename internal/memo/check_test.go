//go:build hpncheck

package memo_test

import (
	"strings"
	"testing"

	"hpn/internal/health"
	"hpn/internal/netsim"
)

// TestFoldVerifiedAgainstWindow changes one recorded completion of a
// window the health monitor folds, as a stale or mis-derived summary would
// leave it, and requires the checked build to panic on the next replay,
// naming the subscriber and the size class.
func TestFoldVerifiedAgainstWindow(t *testing.T) {
	p := newRun(t, true, steadyPhases)
	p.mon = health.Attach(p.net)
	for p.rec.Stats().Replayed < 4 {
		if p.it > 8 {
			t.Fatal("fewer than 4 replays after 8 iterations")
		}
		p.step()
	}
	w := p.rec.Lookup(p.fingerprint())
	if w == nil {
		t.Fatal("no window cached")
	}
	changed := false
change:
	for _, c := range w.Half(0) {
		for i := range c {
			if c[i].Kind == netsim.EvFlowDone {
				c[i].At++
				changed = true
				break change
			}
		}
	}
	if !changed {
		t.Fatal("the window records no completion")
	}
	defer func() {
		const want = "memo: *health.Monitor folded a window half its summary does not match: class flows-4MiB"
		if msg, _ := recover().(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %q; want one mentioning %q", msg, want)
		}
	}()
	p.rec.Replay(w, nil)
}
