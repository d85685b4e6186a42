// Package dualtor models the access-layer designs of §4: the stacked
// dual-ToR of commodity vendors (vPC/M-LAG/stacking) with its failure
// modes, and HPN's non-stacked dual-ToR, where two fully independent ToRs
// are disguised as one LACP system through a pre-configured reserved MAC
// and per-switch portID offsets, with BGP host routes handling failover.
package dualtor

import (
	"fmt"
)

// MAC is an Ethernet address.
type MAC [6]byte

// ReservedSysMAC is the RFC-reserved VRRP virtual-router MAC
// 00:00:5E:00:01:01 the paper picks as the pre-configured LACP system MAC:
// identical on both ToRs of a set, guaranteed never owned by a host.
var ReservedSysMAC = MAC{0x00, 0x00, 0x5E, 0x00, 0x01, 0x01}

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// LACPConfig is the customized LACP module configuration of one ToR (§4.2).
type LACPConfig struct {
	// SystemMAC seeds the sysID. Stock switches derive it from their own
	// chassis MAC; the non-stacked design pre-configures ReservedSysMAC on
	// both members.
	SystemMAC MAC
	// PortIDOffset is added to the physical port number when answering
	// LACPDUs. Stock value 0; the non-stacked design assigns each member a
	// distinct offset > 256 (e.g. 300 / 600) so the two switches never
	// collide: a ToR has fewer than 256 physical ports.
	PortIDOffset int
	// MaxPhysicalPorts bounds valid port numbers (256 on the 51.2T chip
	// port map).
	MaxPhysicalPorts int
}

// NonStackedConfigs returns the two LACP configurations HPN provisions on a
// dual-ToR set: shared reserved MAC, offsets 300 and 600.
func NonStackedConfigs() [2]LACPConfig {
	return [2]LACPConfig{
		{SystemMAC: ReservedSysMAC, PortIDOffset: 300, MaxPhysicalPorts: 256},
		{SystemMAC: ReservedSysMAC, PortIDOffset: 600, MaxPhysicalPorts: 256},
	}
}

// LACPDU is the subset of the LACP data unit that matters for bundling:
// the responding actor's system identity and port number.
type LACPDU struct {
	SysID  MAC
	PortID int
}

// Respond produces the ToR's answer to a host LACPDU received on the given
// physical port, per the customized module: sysID from the pre-configured
// MAC, portID shifted by the member offset.
func (c LACPConfig) Respond(physicalPort int) (LACPDU, error) {
	if physicalPort < 0 || (c.MaxPhysicalPorts > 0 && physicalPort >= c.MaxPhysicalPorts) {
		return LACPDU{}, fmt.Errorf("dualtor: physical port %d out of range", physicalPort)
	}
	return LACPDU{SysID: c.SystemMAC, PortID: physicalPort + c.PortIDOffset}, nil
}

// Bond is the host-side aggregation state after LACP negotiation.
type Bond struct {
	SysID MAC
	// Members are the negotiated remote portIDs, one per NIC port.
	Members []int
}

// FormBond runs the host side of bonding mode 4 (dynamic link aggregation):
// all responders must present the same sysID (one "virtual device") and
// pairwise-distinct portIDs, or aggregation fails.
func FormBond(responses []LACPDU) (Bond, error) {
	if len(responses) == 0 {
		return Bond{}, fmt.Errorf("dualtor: no LACP responses")
	}
	b := Bond{SysID: responses[0].SysID}
	seen := map[int]bool{}
	for _, r := range responses {
		if r.SysID != b.SysID {
			return Bond{}, fmt.Errorf("dualtor: sysID mismatch %v vs %v: links cannot aggregate", r.SysID, b.SysID)
		}
		if seen[r.PortID] {
			return Bond{}, fmt.Errorf("dualtor: duplicate portID %d: aggregation ambiguous", r.PortID)
		}
		seen[r.PortID] = true
		b.Members = append(b.Members, r.PortID)
	}
	return b, nil
}

// NegotiateNonStacked performs the full non-stacked handshake for one NIC
// wired to physical port `port` on both ToRs, and proves the §4.2
// requirements hold: same MAC, different portIDs, no conflict with the
// physical port space.
func NegotiateNonStacked(cfgs [2]LACPConfig, port int) (Bond, error) {
	var duys []LACPDU
	for i, c := range cfgs {
		du, err := c.Respond(port)
		if err != nil {
			return Bond{}, fmt.Errorf("dualtor: ToR%d: %w", i+1, err)
		}
		if c.PortIDOffset > 0 && c.PortIDOffset <= c.MaxPhysicalPorts {
			return Bond{}, fmt.Errorf("dualtor: ToR%d offset %d collides with physical port space", i+1, c.PortIDOffset)
		}
		duys = append(duys, du)
	}
	return FormBond(duys)
}
