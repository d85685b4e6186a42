package metrics

// Ring is a bounded time series: it keeps the most recent Cap samples and
// overwrites the oldest once full. It backs periodic telemetry samplers,
// where memory must stay bounded over arbitrarily long runs but the most
// recent window must never be dropped.
type Ring struct {
	cap  int // 0 = unbounded
	buf  []Point
	head int // index of the oldest sample once full
	n    int
}

// NewRing returns a ring keeping the last cap samples; cap <= 0 means
// unbounded (the ring degenerates to an append-only series).
func NewRing(cap int) *Ring {
	if cap < 0 {
		cap = 0
	}
	r := &Ring{cap: cap}
	if cap > 0 {
		r.buf = make([]Point, 0, cap)
	}
	return r
}

// Add appends a sample, evicting the oldest when full.
func (r *Ring) Add(t, v float64) {
	p := Point{T: t, V: v}
	if r.cap == 0 || r.n < r.cap {
		r.buf = append(r.buf, p)
		r.n++
		return
	}
	r.buf[r.head] = p
	r.head = (r.head + 1) % r.n
}

// Len returns the number of retained samples.
func (r *Ring) Len() int { return r.n }

// At returns the i-th retained sample, oldest first.
func (r *Ring) At(i int) Point {
	if r.cap > 0 && r.n == r.cap {
		return r.buf[(r.head+i)%r.n]
	}
	return r.buf[i]
}
