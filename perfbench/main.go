// Command perfbench is hpnsim's benchmark: four workloads taken from the
// paper's scenarios, each rep in a fresh child process, with end-to-end
// host-time metrics, per-layer self times from a traced pass, and a
// bit-for-bit check of every rep's simulated outcome.
//
// Usage, in this directory (run.sh, called from the repository root,
// builds the binary and runs it here too):
//
//	go run .                               # every workload, -reps each, round-robin
//	go run . -trace                        # one traced pass per workload
//	go run . -workload contended -seconds 25 [-trace 1] [-out run.json]
//	go run . -compare old.json new.json    # apply each metric's bound
//	go run . -update-expect                # regenerate expect/*.json
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"
)

// Seeds are HPNConfig.Seed/DCNConfig.Seed, the ECMP hash seeds. The
// held-out seed was not used while the workloads were chosen.
const (
	defaultSeed = 0x4a50
	heldOutSeed = 0x5eed
)

// suitePairs is how many measured/variant rep pairs the traced pass of the
// suite runs per workload.
const suitePairs = 3

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// normalizeArgs accepts "-trace 0" and "-trace 1" (the two-word form) for
// the boolean -trace flag, which the flag package would otherwise read as
// "-trace" followed by a stray argument.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		child   = fs.String("child", "", "internal: run the rep described by this JSON config and print its report")
		name    = fs.String("workload", "", "measure one workload for -seconds and print the JSON result line")
		seedStr = fs.String("seed", strconv.FormatUint(defaultSeed, 10), "ECMP hash seed (decimal or 0x-prefixed hex)")
		seconds = fs.Int("seconds", 25, "with -workload: measuring time")
		reps    = fs.Int("reps", 7, "without -workload: reps per workload")
		trace   = fs.Bool("trace", false, "run the traced pass: per-layer metrics instead of end-to-end ones")
		outPath = fs.String("out", "", "also write the run, with every rep's values, as JSON to this path (e.g. runs/<stamp>.json)")
		compare = fs.Bool("compare", false, "compare two run files: -compare old.json new.json")
		update  = fs.Bool("update-expect", false, "regenerate expect/*.json, the expected fingerprints for the default and held-out seeds")
	)
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if *child != "" {
		var cfg repConfig
		if err := json.Unmarshal([]byte(*child), &cfg); err != nil {
			fmt.Fprintf(stderr, "perfbench: -child: %v\n", err)
			return 2
		}
		if err := json.NewEncoder(stdout).Encode(runRep(cfg)); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	seed, err := strconv.ParseUint(*seedStr, 0, 64)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: -seed: %v\n", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	run := withHostRef(childRunner(exe))
	if *update {
		if err := updateExpect(run, []uint64{defaultSeed, heldOutSeed}, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: -update-expect: %v\n", err)
			return 1
		}
		return 0
	}
	if *name != "" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %v)\n", *name, workloadNames())
			return 2
		}
		if *seconds < 1 {
			fmt.Fprintf(stderr, "perfbench: -seconds must be at least 1\n")
			return 2
		}
		return single(run, w, seed, time.Duration(*seconds)*time.Second, *trace, *outPath, stdout, stderr)
	}
	if *reps < 1 {
		fmt.Fprintf(stderr, "perfbench: -reps must be at least 1\n")
		return 2
	}
	return runSuite(run, seed, *reps, *trace, *outPath, stdout, stderr)
}

func newLedger(seed uint64, trace bool, reps int) ledger {
	return ledger{
		Stamp:  clock().UTC().Format("20060102T150405Z"),
		Host:   thisHost(),
		Seed:   fmt.Sprintf("%#x", seed),
		Traced: trace,
		Reps:   reps,
	}
}

// single measures one workload, optionally writes the run file, and prints
// the JSON result line last.
func single(run runner, w workload, seed uint64, seconds time.Duration, trace bool, outPath string, stdout, stderr io.Writer) int {
	var wr workloadRun
	var line result
	if trace {
		wr = tracePass(run, w, seed, seconds, 0, false)
		line = perLayerLine(wr)
	} else {
		wr = measure(run, w, seed, seconds, false)
		line = endToEndLine(wr)
	}
	for _, p := range wr.Problems {
		fmt.Fprintln(stderr, "perfbench:", p)
	}
	if outPath != "" {
		l := newLedger(seed, trace, wr.Attempted)
		l.Workloads = []workloadRun{wr}
		if err := writeLedger(outPath, l); err != nil {
			fmt.Fprintf(stderr, "perfbench: -out: %v\n", err)
			return 1
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// runSuite runs every workload (untraced round-robin, or the traced pass),
// prints each workload's table and optionally writes the run file.
func runSuite(run runner, seed uint64, reps int, trace bool, outPath string, stdout, stderr io.Writer) int {
	l := newLedger(seed, trace, reps)
	defs := append(append([]metricDef(nil), endToEnd...), suiteOnly...)
	if trace {
		defs = perLayer
		l.Reps = suitePairs
		for _, w := range workloads {
			l.Workloads = append(l.Workloads, tracePass(run, w, seed, 0, suitePairs, false))
		}
	} else {
		l.Workloads = suite(run, seed, reps, false)
	}
	failed := 0
	for _, wr := range l.Workloads {
		printTable(stdout, wr, defs)
		failed += wr.Failed
	}
	if outPath != "" {
		if err := writeLedger(outPath, l); err != nil {
			fmt.Fprintf(stderr, "perfbench: -out: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nwrote %s\n", outPath)
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d rep(s) failed or mismatched their expected fingerprint\n", failed)
		return 1
	}
	return 0
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "perfbench: -compare needs two run files: old.json new.json")
		return 2
	}
	o, err := readLedger(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: -compare: %v\n", err)
		return 2
	}
	n, err := readLedger(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: -compare: %v\n", err)
		return 2
	}
	if compareLedgers(o, n, stdout) > 0 {
		return 1
	}
	return 0
}
