package telemetry

import (
	"io"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRegistryConcurrentUse pins the registry's concurrency contract under
// the race detector: counters, a gauge-backing value and a histogram are
// hammered from writer goroutines while exporters snapshot concurrently
// (Prometheus text, JSON, and the Values vector).
// The profiler publishes its phases as gauges through this same surface,
// and a sharded run's pods update them from concurrent windows, so this
// contract must hold before prof adds more writers.
func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	ctr := r.Counter("hammer_total", "concurrent counter")
	hist := r.Histogram("hammer_seconds", "concurrent histogram", LogBuckets(1e-6, 10, 6))
	// Gauge callbacks run outside the registry lock at snapshot time, so
	// the backing value must be safe to read concurrently — atomics here,
	// exactly what prof's phase accumulators do.
	var gaugeVal atomic.Int64
	r.Gauge("hammer_gauge", "concurrent gauge", func() float64 {
		return float64(gaugeVal.Load())
	})

	const writers = 4
	const iters = 2000
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				ctr.Inc()
				hist.Observe(int64(i%10) * 1e4)
				gaugeVal.Add(1)
			}
		}(w)
	}
	for e := 0; e < 3; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				switch e {
				case 0:
					if err := r.WritePrometheus(io.Discard); err != nil {
						t.Errorf("WritePrometheus: %v", err)
						return
					}
				case 1:
					if err := r.WriteJSON(io.Discard); err != nil {
						t.Errorf("WriteJSON: %v", err)
						return
					}
				default:
					r.Values(nil)
				}
			}
		}(e)
	}
	close(start)
	wg.Wait()

	if got := ctr.Value(); got != writers*iters {
		t.Fatalf("counter = %v, want %d", got, writers*iters)
	}
	if _, got, _ := histState(hist); got != writers*iters {
		t.Fatalf("histogram count = %d, want %d", got, writers*iters)
	}
	if got := gaugeVal.Load(); got != writers*iters {
		t.Fatalf("gauge backing value = %d, want %d", got, writers*iters)
	}
}
