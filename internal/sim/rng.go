package sim

import "math"

// RNG is a small, fast, deterministic random number generator
// (SplitMix64-based). Every stochastic component of the simulator draws from
// an RNG stream derived from the experiment seed, so runs are reproducible
// bit-for-bit. We deliberately avoid math/rand's global state.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Seed zero is remapped so the
// zero value still produces a usable stream.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed sample with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	//hpnlint:allow floateq -- exact zero guard: math.Log(0) is -Inf, any positive value is fine
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed sample (Box-Muller).
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	//hpnlint:allow floateq -- exact zero guard: math.Log(0) is -Inf, any positive value is fine
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }
