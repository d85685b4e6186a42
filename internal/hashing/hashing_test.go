package hashing

import (
	"math"
	"testing"
	"testing/quick"
)

func someFlows(n int) []FiveTuple {
	flows := make([]FiveTuple, n)
	for i := range flows {
		flows[i] = FiveTuple{
			SrcAddr: uint32(i/100 + 1),
			DstAddr: uint32(i%100 + 1000),
			SrcPort: uint16(49152 + i),
			DstPort: 4791, // RoCEv2
			Proto:   17,
		}
	}
	return flows
}

func TestHashDeterminism(t *testing.T) {
	h := Hasher{Seed: 42}
	f := FiveTuple{1, 2, 3, 4, 5}
	if h.Hash(f) != h.Hash(f) {
		t.Fatal("hash not deterministic")
	}
	if (Hasher{Seed: 42}).Hash(f) != h.Hash(f) {
		t.Fatal("hash depends on hasher identity, not seed")
	}
	if (Hasher{Seed: 43}).Hash(f) == h.Hash(f) {
		t.Fatal("different seeds produced identical hash (astronomically unlikely)")
	}
}

func TestSelectRange(t *testing.T) {
	f := func(seed uint64, src, dst uint32, sp, dp uint16, nRaw uint8) bool {
		n := int(nRaw%60) + 1
		got := Hasher{Seed: seed}.Select(FiveTuple{src, dst, sp, dp, 17}, n)
		return got >= 0 && got < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelectPanicsOnEmptyGroup(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Select over empty group did not panic")
		}
	}()
	Hasher{}.Select(FiveTuple{}, 0)
}

func TestUniformity(t *testing.T) {
	h := Hasher{Seed: 7}
	const n = 16
	counts := make([]int, n)
	flows := someFlows(16000)
	for _, f := range flows {
		counts[h.Select(f, n)]++
	}
	want := float64(len(flows)) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.15 {
			t.Fatalf("bucket %d = %d, want ~%v (>15%% off)", i, c, want)
		}
	}
}

// cascade sends flows through two hashing stages of fanout n1 then n2 and
// returns, for each first-stage bucket, the distribution across
// second-stage buckets.
func cascade(flows []FiveTuple, stage1, stage2 Hasher, n1, n2 int) [][]int {
	out := make([][]int, n1)
	for i := range out {
		out[i] = make([]int, n2)
	}
	for _, f := range flows {
		out[stage1.Select(f, n1)][stage2.Select(f, n2)]++
	}
	return out
}

// The core polarization result: with the SAME hash function at two cascaded
// tiers and equal group widths, every first-stage bucket maps to exactly one
// second-stage bucket — the downstream ECMP degenerates completely.
func TestHashPolarizationSameFunction(t *testing.T) {
	flows := someFlows(4000)
	same := Hasher{Seed: 99}
	grid := cascade(flows, same, same, 8, 8)
	for b1, row := range grid {
		nonEmpty := 0
		for _, c := range row {
			if c > 0 {
				nonEmpty++
			}
		}
		if nonEmpty > 1 {
			t.Fatalf("bucket %d spread over %d downstream buckets; same-function cascade must polarize", b1, nonEmpty)
		}
	}
}

// With independent seeds per tier the second stage re-balances.
func TestNoPolarizationIndependentSeeds(t *testing.T) {
	flows := someFlows(8000)
	grid := cascade(flows, Hasher{Seed: 1}, Hasher{Seed: 2}, 8, 8)
	for b1, row := range grid {
		if Imbalance(row) > 1.5 {
			t.Fatalf("bucket %d imbalance %v with independent seeds", b1, Imbalance(row))
		}
	}
}

func TestImbalance(t *testing.T) {
	if got := Imbalance([]int{10, 10}); got != 1 {
		t.Fatalf("balanced imbalance = %v, want 1", got)
	}
	if got := Imbalance([]int{30, 10}); got != 1.5 {
		t.Fatalf("imbalance = %v, want 1.5", got)
	}
	if Imbalance(nil) != 0 || Imbalance([]int{0, 0}) != 0 {
		t.Fatal("degenerate imbalance must be 0")
	}
}

func TestRatioImbalance(t *testing.T) {
	if got := RatioImbalance([]float64{5, 5}, 10); got != 1 {
		t.Fatalf("even ratio = %v, want 1", got)
	}
	if got := RatioImbalance([]float64{30, 10}, 10); got != 3 {
		t.Fatalf("3:1 ratio = %v, want 3", got)
	}
	// The fig13 clamp: a starved port is reported as the cap, not infinity,
	// and any finite ratio above the cap saturates there too.
	if got := RatioImbalance([]float64{7, 0}, 10); got != 10 {
		t.Fatalf("starved port ratio = %v, want the cap 10", got)
	}
	if got := RatioImbalance([]float64{5000, 1}, 10); got != 10 {
		t.Fatalf("over-cap ratio = %v, want clamped 10", got)
	}
	// No traffic anywhere is balanced by convention, as is nothing at all.
	if RatioImbalance([]float64{0, 0}, 10) != 1 || RatioImbalance(nil, 10) != 1 {
		t.Fatal("no-traffic ratio must be 1")
	}
	// cap <= 0 disables the clamp entirely.
	if got := RatioImbalance([]float64{5000, 1}, 0); got != 5000 {
		t.Fatalf("unclamped ratio = %v, want 5000", got)
	}
	if got := RatioImbalance([]float64{7, 0}, 0); !math.IsInf(got, 1) {
		t.Fatalf("unclamped starved ratio = %v, want +Inf", got)
	}
}

func TestPortHasherIgnoresTuple(t *testing.T) {
	p := PortHasher{Seed: 5}
	// Same (port, pod) must always map to the same egress, for any flow.
	want := p.Select(3, 7, 16)
	for i := 0; i < 100; i++ {
		if p.Select(3, 7, 16) != want {
			t.Fatal("per-port hash not deterministic")
		}
	}
	// Different ingress ports should spread across egresses.
	counts := make([]int, 16)
	for port := 0; port < 160; port++ {
		counts[p.Select(port, 7, 16)]++
	}
	if Imbalance(counts) > 2.0 {
		t.Fatalf("per-port hash badly imbalanced: %v", counts)
	}
}

func TestPortHasherFallback(t *testing.T) {
	p := PortHasher{Seed: 5}
	f := FiveTuple{1, 2, 3, 4, 17}
	if got := p.FallbackSelect(f, 16); got != (Hasher{Seed: 5}).Select(f, 16) {
		t.Fatal("fallback must be the default 5-tuple hash")
	}
}

// Changing only the source port must move the hash (otherwise disjoint-path
// search by sport sweep could not work).
func TestSrcPortSensitivity(t *testing.T) {
	h := Hasher{Seed: 11}
	base := FiveTuple{10, 20, 1000, 4791, 17}
	moved := 0
	for sp := uint16(1001); sp < 1101; sp++ {
		f := base
		f.SrcPort = sp
		if h.Select(f, 60) != h.Select(base, 60) {
			moved++
		}
	}
	if moved < 90 {
		t.Fatalf("only %d/100 sport changes moved the bucket", moved)
	}
}

func BenchmarkHash(b *testing.B) {
	h := Hasher{Seed: 1}
	f := FiveTuple{1, 2, 3, 4, 17}
	for i := 0; i < b.N; i++ {
		f.SrcPort = uint16(i)
		_ = h.Select(f, 60)
	}
}
