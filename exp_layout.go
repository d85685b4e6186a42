package hpn

import (
	"fmt"
	"math"

	"hpn/internal/topo"
)

func init() {
	register("appd", "Data center layout: one pod per building (Appendix D, §10)", runAppD)
}

// runAppD reproduces the Appendix D layout arithmetic from built
// topologies: with each backend pod contained in one 18MW building and the
// frontend (plus storage) in its own building, only frontend access cables
// and Agg-Core uplinks leave a building. Intra-building runs stay under
// 100m and can use multi-mode transceivers at ~30% of single-mode cost.
func runAppD(Env) (*Report, error) {
	r := &Report{ID: "appd", Title: "One pod per building: link locality and optics cost"}

	// Count real cables on production-scale builds (the backend pod build
	// is ~47K cables; use the full thing even at quick scale — it is fast).
	backendCfg := DefaultHPN()
	backendCfg.Pods = 2 // two buildings, so Agg-Core cross-building links exist
	backend, err := topo.BuildHPN(backendCfg)
	if err != nil {
		return nil, err
	}
	frontendCfg := topo.DefaultFrontend()
	frontend, err := topo.BuildFrontend(frontendCfg)
	if err != nil {
		return nil, err
	}

	// Classify backend cables: Agg-Core uplinks cross buildings (the Core
	// tier interconnects pod buildings); everything else stays inside the
	// pod's building.
	var backendIntra, backendCross int
	for _, l := range backend.Links {
		if l.ID%2 == 1 {
			continue // count each cable once (even IDs are the "up" twins)
		}
		from, to := backend.Node(l.From).Kind, backend.Node(l.To).Kind
		if from == topo.KindCore || to == topo.KindCore {
			backendCross++
		} else {
			backendIntra++
		}
	}

	// Every backend host also has one frontend NIC (2 ports) reaching the
	// frontend building: all cross-building. The frontend fabric itself is
	// intra-building.
	hostFrontendAccess := len(backend.Hosts) * 2
	frontendIntra := len(frontend.Links) / 2

	cross := backendCross + hostFrontendAccess
	intra := backendIntra + frontendIntra
	total := cross + intra
	crossShare := float64(cross) / float64(total)

	// Optics cost: multi-mode transceivers (usable under 100m) cost ~30%
	// of single-mode. Savings = what the intra-building share avoids.
	const mmCostShare = 0.3
	withLayout := float64(intra)*mmCostShare + float64(cross)
	allSingleMode := float64(total)
	saving := 1 - withLayout/allSingleMode

	r.AddTable(Table{
		Title:  fmt.Sprintf("cable census: %d-pod backend + frontend building", backendCfg.Pods),
		Header: []string{"class", "cables", "placement", "optics"},
		Rows: [][]string{
			{"host-ToR / ToR-Agg (backend)", fmtF(float64(backendIntra)), "intra-building", "multi-mode"},
			{"Agg-Core (tier3)", fmtF(float64(backendCross)), "cross-building", "single-mode"},
			{"host frontend access", fmtF(float64(hostFrontendAccess)), "cross-building", "single-mode"},
			{"frontend fabric", fmtF(float64(frontendIntra)), "intra-building", "multi-mode"},
		},
	})
	r.AddClaim("cross-building links are a small share", "~12.9%", pct(crossShare),
		crossShare > 0.05 && crossShare < 0.20)
	r.AddClaim("multi-mode optics cut per-link cost", "70% cheaper than single-mode",
		pct(1-mmCostShare), math.Abs(mmCostShare-0.3) < 1e-9)
	r.AddClaim("layout cuts total optics cost", "large saving vs all-single-mode",
		pct(saving)+" saved", saving > 0.5)

	// §10's other layout claim: an 18MW building houses one whole pod.
	gpusPerPod := backend.TotalGPUs(true) / backendCfg.Pods
	r.AddClaim("an 18MW building houses one 15K-GPU pod", "~15K GPUs/building",
		fmtF(float64(gpusPerPod)), gpusPerPod == 15360)
	return r, nil
}
