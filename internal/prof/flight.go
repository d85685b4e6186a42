package prof

import (
	"bufio"
	"fmt"
	"io"
	"sync"
)

// DefaultFlightCap is the ring capacity when NewFlight is given n <= 0.
// Sized to hold the event context around one incident (a reroute pass on a
// quick-scale segment touches tens of flows), while bounding memory: the
// recorder is always-on, so it must never grow with run length.
const DefaultFlightCap = 1024

// maxFlightWindows bounds how many marked evidence windows one run keeps.
// A pathological run opening hundreds of incidents would otherwise turn
// the "bounded" recorder into an unbounded event log; past the cap, later
// marks are counted but their windows dropped (the first incidents are the
// diagnostic ones — cascades repeat them).
const maxFlightWindows = 16

// Event is one flight-recorder entry. TS is simulated time (ns) and every
// field derives from simulator state, so ring contents are byte-for-byte
// reproducible across same-seed runs — unlike the profiler's wall fields.
type Event struct {
	TS      int64
	Kind    string // e.g. flows_done, link_down, reroute
	Subject string // flow or cable/node designator; "" when the kind needs none
	V1, V2  int64  // kind-specific values (bytes moved, flows rerouted, ...)
}

// window is one marked evidence capture: the ring contents at Mark time.
type window struct {
	ts     int64
	reason string
	seen   uint64 // events recorded up to the mark
	events []Event
}

// Flight is a bounded ring of recent fabric events plus up to
// maxFlightWindows marked captures. netsim's fabric event stream feeds the
// ring; health marks it when an incident opens, freezing the evidence the
// detector acted on, so hpndoctor gets real event context instead of only
// detector summaries. All methods are nil-safe.
type Flight struct {
	mu      sync.Mutex
	ring    []Event
	next    int    // ring insertion cursor
	total   uint64 // events ever recorded
	windows []window
	dropped int // marks past maxFlightWindows
}

// NewFlight returns a recorder with the given ring capacity
// (DefaultFlightCap when n <= 0).
func NewFlight(n int) *Flight {
	if n <= 0 {
		n = DefaultFlightCap
	}
	return &Flight{ring: make([]Event, 0, n)}
}

// Note records one event, evicting the oldest when the ring is full.
// Nil-safe.
func (f *Flight) Note(tsNS int64, kind, subject string, v1, v2 int64) {
	if f == nil {
		return
	}
	ev := Event{TS: tsNS, Kind: kind, Subject: subject, V1: v1, V2: v2}
	f.mu.Lock()
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, ev)
	} else {
		f.ring[f.next] = ev
	}
	f.next = (f.next + 1) % cap(f.ring)
	f.total++
	f.mu.Unlock()
}

// Mark freezes the current ring contents as an evidence window (oldest
// event first). Past maxFlightWindows the mark is counted but its window
// dropped. Nil-safe.
func (f *Flight) Mark(tsNS int64, reason string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	if len(f.windows) >= maxFlightWindows {
		f.dropped++
		f.mu.Unlock()
		return
	}
	f.windows = append(f.windows, window{
		ts:     tsNS,
		reason: reason,
		seen:   f.total,
		events: f.ordered(),
	})
	f.mu.Unlock()
}

// ordered returns the ring contents oldest-first. Callers hold f.mu.
func (f *Flight) ordered() []Event {
	out := make([]Event, 0, len(f.ring))
	if len(f.ring) == cap(f.ring) {
		out = append(out, f.ring[f.next:]...)
		out = append(out, f.ring[:f.next]...)
	} else {
		out = append(out, f.ring...)
	}
	return out
}

// WriteTSV dumps every marked window followed by the live tail (the ring
// at write time). One flat schema: the window column is w01..w16 or
// "tail"; each window opens with a kind=mark row carrying the incident
// reason and the total events recorded up to the mark. Every value is
// simulated state, so the file is byte-identical across same-seed runs.
// Nil-safe (header only).
func (f *Flight) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "window\tts_ns\tkind\tsubject\tv1\tv2")
	if f == nil {
		return bw.Flush()
	}
	f.mu.Lock()
	windows := f.windows
	tail := f.ordered()
	dropped := f.dropped
	f.mu.Unlock()
	for i, win := range windows {
		id := fmt.Sprintf("w%02d", i+1)
		fmt.Fprintf(bw, "%s\t%d\tmark\t%s\t%d\t%d\n",
			id, win.ts, win.reason, int64(len(win.events)), int64(win.seen))
		for _, ev := range win.events {
			fmt.Fprintf(bw, "%s\t%d\t%s\t%s\t%d\t%d\n",
				id, ev.TS, ev.Kind, ev.Subject, ev.V1, ev.V2)
		}
	}
	if dropped > 0 {
		fmt.Fprintf(bw, "tail\t0\tmarks_dropped\t\t%d\t0\n", int64(dropped))
	}
	for _, ev := range tail {
		fmt.Fprintf(bw, "tail\t%d\t%s\t%s\t%d\t%d\n",
			ev.TS, ev.Kind, ev.Subject, ev.V1, ev.V2)
	}
	return bw.Flush()
}
