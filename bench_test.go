package hpn

// One benchmark per paper artifact: running `go test -bench=. -benchmem`
// regenerates every table and figure at quick scale and reports the
// headline measured quantity of each as a custom metric. Set -tags or run
// `cmd/hpnbench -scale full` for paper-scale numbers.

import (
	"strconv"
	"testing"

	"hpn/internal/collective"
	"hpn/internal/topo"
)

// benchExperiment runs one registered experiment per iteration and asserts
// its claims hold.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var last *Report
	for i := 0; i < b.N; i++ {
		r, err := Run(id, Env{Scale: ScaleQuick})
		if err != nil {
			b.Fatal(err)
		}
		if !r.Holds() {
			b.Fatalf("%s claims do not hold:\n%s", id, r.String())
		}
		last = r
	}
	b.ReportMetric(float64(len(last.Claims)), "claims")
}

func BenchmarkFig1CloudTraffic(b *testing.B)        { benchExperiment(b, "fig1") }
func BenchmarkFig2NICBursts(b *testing.B)           { benchExperiment(b, "fig2") }
func BenchmarkFig3ConnectionsCDF(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkFig4CheckpointIntervals(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFig5LinkFailureRatio(b *testing.B)    { benchExperiment(b, "fig5") }
func BenchmarkFig6JobSizeCDF(b *testing.B)          { benchExperiment(b, "fig6") }
func BenchmarkFig9PowerCooling(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkTab1PathComplexity(b *testing.B)      { benchExperiment(b, "tab1") }
func BenchmarkTab2ScaleMechanisms(b *testing.B)     { benchExperiment(b, "tab2") }
func BenchmarkTab3ParallelismTraffic(b *testing.B)  { benchExperiment(b, "tab3") }
func BenchmarkTab4RailOnlyTier2(b *testing.B)       { benchExperiment(b, "tab4") }
func BenchmarkFig13PortImbalance(b *testing.B)      { benchExperiment(b, "fig13") }
func BenchmarkFig14ToRQueues(b *testing.B)          { benchExperiment(b, "fig14") }
func BenchmarkFig15ProductionTraining(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFig16RepresentativeLLMs(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFig17Collectives(b *testing.B)        { benchExperiment(b, "fig17") }
func BenchmarkFig18LinkMalfunctions(b *testing.B)   { benchExperiment(b, "fig18") }
func BenchmarkFig19DualPlaneAllReduce(b *testing.B) { benchExperiment(b, "fig19") }
func BenchmarkFig20DCNTopology(b *testing.B)        { benchExperiment(b, "fig20") }
func BenchmarkSec7CrossPodPP(b *testing.B)          { benchExperiment(b, "sec7") }
func BenchmarkSec8FrontendStorage(b *testing.B)     { benchExperiment(b, "sec8") }
func BenchmarkSec42DualToRReliability(b *testing.B) { benchExperiment(b, "sec42") }
func BenchmarkSec61aQueueReduction(b *testing.B)    { benchExperiment(b, "sec61a") }
func BenchmarkSec61bPathSelection(b *testing.B)     { benchExperiment(b, "sec61b") }
func BenchmarkAppDLayout(b *testing.B)              { benchExperiment(b, "appd") }

// Microbenchmarks of the substrate hot paths.

func BenchmarkBuildHPNPod(b *testing.B) {
	cfg := DefaultHPN()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := topo.BuildHPN(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if t.TotalGPUs(true) != 15360 {
			b.Fatal("wrong pod size")
		}
	}
}

func BenchmarkAllReduceBySize(b *testing.B) {
	for _, mb := range []int{16, 256, 1024} {
		mb := mb
		b.Run(strconv.Itoa(mb)+"MB", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := NewHPN(SmallHPN(1, 16, 8))
				if err != nil {
					b.Fatal(err)
				}
				hosts, err := c.PlaceJob(16)
				if err != nil {
					b.Fatal(err)
				}
				g, err := collective.NewGroup(c.Net, c.CollectiveConfig(), hosts, 8)
				if err != nil {
					b.Fatal(err)
				}
				res, err := g.AllReduce(float64(mb << 20))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.BusBW/1e9, "busbw-GB/s")
			}
		})
	}
}

func BenchmarkMaxMinAllocation(b *testing.B) {
	c, err := NewHPN(SmallHPN(2, 16, 8))
	if err != nil {
		b.Fatal(err)
	}
	hosts, err := c.PlaceJob(32)
	if err != nil {
		b.Fatal(err)
	}
	g, err := collective.NewGroup(c.Net, c.CollectiveConfig(), hosts, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.AllReduce(8 << 20); err != nil {
			b.Fatal(err)
		}
	}
}
