// Package hashing models the ECMP hash machinery of data-center switches.
//
// It provides:
//
//   - FiveTuple: the flow key hashed by every switch on the path.
//   - Hasher: a deterministic per-switch hash over a FiveTuple. Switches can
//     be configured with the same function everywhere ("legacy" mode, which
//     exhibits hash polarization exactly as §2.2 of the paper describes) or
//     with per-switch seeds.
//   - Per-port hashing (§7): a Core-switch mode where the egress choice is a
//     function of (ingress port, destination pod) alone, 5-tuple irrelevant.
//   - RePaC-style hash prediction: because the hash is deterministic and its
//     parameters are known to the host, a sender can compute — not guess —
//     which member of each ECMP group a given source port will select. This
//     is the property HPN's path selection (§6.1, Appendix B) relies on.
package hashing

import "math"

// FiveTuple identifies a flow the way switch ASICs see it. Addresses are
// abstract endpoint IDs (the simulator does not need real IPs; any stable
// integer identity hashes the same way).
type FiveTuple struct {
	SrcAddr uint32
	DstAddr uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// Word packs the tuple into a single 64-bit word mixing all fields; the
// packing is what the hash functions consume.
func (t FiveTuple) Word() uint64 {
	w := uint64(t.SrcAddr)<<32 | uint64(t.DstAddr)
	w ^= uint64(t.SrcPort)<<48 | uint64(t.DstPort)<<16 | uint64(t.Proto)
	return w
}

// Hasher is a seeded deterministic flow hash, standing in for the CRC-based
// field hash of a switching chip. Distinct seeds give statistically
// independent functions; a shared seed reproduces the "same hash function at
// every tier" deployment that causes polarization.
type Hasher struct {
	Seed uint64
}

// Hash returns the raw 64-bit hash of the tuple.
func (h Hasher) Hash(t FiveTuple) uint64 {
	return mix(t.Word() ^ mix(h.Seed))
}

// Select picks an ECMP member index in [0, n). It panics if n <= 0 — an
// empty ECMP group is a routing bug that must not be masked here.
func (h Hasher) Select(t FiveTuple, n int) int {
	if n <= 0 {
		panic("hashing: Select over empty ECMP group")
	}
	return int(h.Hash(t) % uint64(n))
}

// mix is the SplitMix64 finalizer: full-avalanche, invertible, fast.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PortHasher implements the §7 Core-layer "per-port hash": traffic toward
// pod i arriving on physical port j deterministically leaves on uplink
// k = f(i, j), independent of the 5-tuple. On uplink failure the switch
// falls back to the default 5-tuple hash (FallbackSelect).
type PortHasher struct {
	Seed uint64
}

// Select returns the egress index in [0, n) for traffic to dstPod arriving
// on ingressPort. The mapping is an engineered per-pod rotation — injective
// in the ingress port — so no two ingress links can pile onto one egress
// link, which is precisely how the prior per-port hash eliminates
// polarization at tier3 (§7).
func (p PortHasher) Select(ingressPort, dstPod, n int) int {
	if n <= 0 {
		panic("hashing: PortHasher.Select over empty group")
	}
	offset := int(mix(uint64(dstPod)^mix(p.Seed)) % uint64(n))
	return ((ingressPort % n) + offset) % n
}

// FallbackSelect is the failure-case 5-tuple hash (§7: "traffic would fall
// back to execute the default 5-tuple-based hash").
func (p PortHasher) FallbackSelect(t FiveTuple, n int) int {
	return Hasher{Seed: p.Seed}.Select(t, n)
}

// Imbalance quantifies load imbalance of a bucket-count vector as
// max/mean. A perfectly balanced split gives 1.0; the paper's Figure 13a
// shows ~3x between two ToR ports.
func Imbalance(counts []int) float64 {
	if len(counts) == 0 {
		return 0
	}
	maxC, sum := 0, 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
		sum += c
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(counts))
	return float64(maxC) / mean
}

// RatioImbalance quantifies imbalance of a load vector as max/min — the
// per-NIC port-ratio metric of Figure 13, where 1.0 is perfectly even and
// the paper reports ~3x between the two ports of a dual-ToR NIC. A vector
// carrying no traffic at all reports 1 (nothing is imbalanced); a starved
// member (zero load while others carry traffic) makes the ratio infinite
// and is clamped to cap, as is any finite ratio above it. cap <= 0 disables
// the clamp (starvation then reports +Inf). This is the single definition
// shared by the fig13 experiment and the in-band forensics, so the two
// can never drift apart.
func RatioImbalance(loads []float64, cap float64) float64 {
	if len(loads) == 0 {
		return 1
	}
	hi, lo := loads[0], loads[0]
	for _, v := range loads[1:] {
		if v > hi {
			hi = v
		}
		if v < lo {
			lo = v
		}
	}
	if hi <= 0 {
		return 1
	}
	r := math.Inf(1)
	if lo > 0 {
		r = hi / lo
	}
	if cap > 0 && r > cap {
		return cap
	}
	return r
}
