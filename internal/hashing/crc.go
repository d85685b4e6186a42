package hashing

// This file implements the mechanism RePaC ("Hashing Linearity Enables
// Relative Path Control", ATC'21) actually exploits: switch ASICs hash with
// CRC variants, and CRC is linear over GF(2):
//
//	crc(a XOR b) = crc(a) XOR crc(b)
//
// for equal-length inputs (with zero init/xorout). A host that knows the
// polynomial can therefore precompute, once per destination, the effect of
// every source-port bit on the hash, then evaluate any candidate source
// port with a handful of XORs — no per-candidate rehash — and even solve
// directly for source ports that land in a desired ECMP bucket. That is
// what makes HPN's disjoint-path search (Algorithm 1) cheap in practice.

// CRC16 computes a bitwise CRC-16 with the given polynomial over data,
// with zero initial value and no final XOR, so it is strictly linear. No
// simulated switch hashes with it and no program calls this file: the
// RePaC solver stands alone, and crc_test checks it against brute force.
type CRC16 struct {
	// Poly is the truncated polynomial (e.g. 0x1021 for CCITT).
	Poly uint16
}

// CCITTPoly is the classic CRC-16/CCITT polynomial used by many switching
// ASIC hash stages.
const CCITTPoly = 0x1021

// Sum returns the CRC of data.
func (c CRC16) Sum(data []byte) uint16 {
	var crc uint16
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ c.Poly
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// tupleBytes serializes a FiveTuple the way a switch parser would feed the
// hash stage (fixed field order, big-endian).
func tupleBytes(t FiveTuple) [13]byte {
	var b [13]byte
	b[0] = byte(t.SrcAddr >> 24)
	b[1] = byte(t.SrcAddr >> 16)
	b[2] = byte(t.SrcAddr >> 8)
	b[3] = byte(t.SrcAddr)
	b[4] = byte(t.DstAddr >> 24)
	b[5] = byte(t.DstAddr >> 16)
	b[6] = byte(t.DstAddr >> 8)
	b[7] = byte(t.DstAddr)
	b[8] = byte(t.SrcPort >> 8)
	b[9] = byte(t.SrcPort)
	b[10] = byte(t.DstPort >> 8)
	b[11] = byte(t.DstPort)
	b[12] = t.Proto
	return b
}

// HashTuple returns the CRC-16 of the serialized tuple.
func (c CRC16) HashTuple(t FiveTuple) uint16 {
	b := tupleBytes(t)
	return c.Sum(b[:])
}

// Select picks an ECMP member like a CRC-hashing ASIC would.
func (c CRC16) Select(t FiveTuple, n int) int {
	if n <= 0 {
		panic("hashing: CRC16.Select over empty ECMP group")
	}
	return int(c.HashTuple(t)) % n
}

// SportBasis precomputes the linear decomposition of the hash with respect
// to the source port: for the tuple with SrcPort=0 it returns the base
// hash, plus the XOR-contribution of each of the 16 source-port bits.
// Any source port's hash is then base XOR (contributions of its set bits).
func (c CRC16) SportBasis(t FiveTuple) (base uint16, basis [16]uint16) {
	z := t
	z.SrcPort = 0
	base = c.HashTuple(z)
	for bit := 0; bit < 16; bit++ {
		o := t
		o.SrcPort = 1 << bit
		// Linearity: contribution = crc(tuple with only this bit) XOR base.
		basis[bit] = c.HashTuple(o) ^ base
	}
	return base, basis
}

// EvalSport returns the hash of the tuple with the given source port using
// only the precomputed basis — 16 conditional XORs instead of a full CRC.
func EvalSport(base uint16, basis [16]uint16, sport uint16) uint16 {
	h := base
	for bit := 0; bit < 16 && sport != 0; bit++ {
		if sport&(1<<bit) != 0 {
			h ^= basis[bit]
		}
		sport &^= 1 << bit // branch-free enough; clarity first
	}
	return h
}

// SportsForBucket returns up to limit source ports >= from whose hash
// falls into the given ECMP bucket (hash % n == bucket), evaluated via the
// linear basis. This is the RePaC-style "reprint the exact hash results"
// primitive behind Algorithm 1.
func SportsForBucket(base uint16, basis [16]uint16, n, bucket int, from uint16, limit int) []uint16 {
	if n <= 0 || bucket < 0 || bucket >= n || limit <= 0 {
		return nil
	}
	out := make([]uint16, 0, limit)
	for s := uint32(from); s <= 0xffff; s++ {
		if int(EvalSport(base, basis, uint16(s)))%n == bucket {
			out = append(out, uint16(s))
			if len(out) == limit {
				break
			}
		}
	}
	return out
}
