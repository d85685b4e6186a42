package sim

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Fatalf("bucket %d count %d deviates >5%% from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	r := NewRNG(5)
	const mean, n = 3.5, 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(mean)
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.03 {
		t.Fatalf("Exp mean = %v, want ~%v", got, mean)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(9)
	const mean, sd, n = 10.0, 2.0, 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(mean, sd)
		sum += v
		sumsq += v * v
	}
	m := sum / n
	variance := sumsq/n - m*m
	if math.Abs(m-mean) > 0.05 || math.Abs(math.Sqrt(variance)-sd) > 0.05 {
		t.Fatalf("Normal moments: mean=%v sd=%v", m, math.Sqrt(variance))
	}
}

func TestBernoulliProbability(t *testing.T) {
	r := NewRNG(13)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) hit rate %v", p)
	}
}
