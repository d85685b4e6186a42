package memo

import "hpn/internal/netsim"

// Half returns the recorded events of half h of w, in chunks.
func (w *Window) Half(h int) [][]netsim.Event { return w.ev[h] }
