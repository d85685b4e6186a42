package hpn_test

import (
	"fmt"

	"hpn"
)

// Building a cluster, placing a job segment-first and running one
// collective is the three-call core of the API.
func Example() {
	cluster, err := hpn.NewHPN(hpn.SmallHPN(1, 8, 8))
	if err != nil {
		panic(err)
	}
	hosts, _ := cluster.PlaceJob(8)
	group, _ := hpn.NewCollectiveGroup(cluster, cluster.CollectiveConfig(), hosts)
	res, _ := group.AllReduce(64 << 20)
	fmt.Printf("%s over %d GPUs in %d segment(s)\n",
		res.Op, group.GPUs(), cluster.SegmentsSpanned(hosts))
	// Output:
	// allreduce over 64 GPUs in 1 segment(s)
}

// Every table and figure of the paper is a named experiment.
func ExampleRun() {
	report, err := hpn.Run("tab3", hpn.Env{Scale: hpn.ScaleQuick})
	if err != nil {
		panic(err)
	}
	fmt.Println(report.Title, "-", len(report.Claims), "claims, holds:", report.Holds())
	// Output:
	// Traffic patterns of different parallelisms (GPT-3 175B, TP=8 PP=8 DP=512) - 4 claims, holds: true
}

// Training jobs decompose into TP/PP/DP and run as simulated iterations.
func ExampleNewTrainer() {
	cluster, _ := hpn.NewHPN(hpn.SmallHPN(1, 8, 8))
	hosts, _ := cluster.PlaceJob(8)
	job, _ := hpn.NewJob(hpn.LLaMa13B, hpn.Parallelism{TP: 8, PP: 1, DP: 8}, hosts)
	trainer, _ := hpn.NewTrainer(cluster, job)
	_ = trainer.Start(2)
	cluster.Eng.Run()
	fmt.Println("iterations:", trainer.Iterations)
	// Output:
	// iterations: 2
}
