// Command hpnlint is the repo's determinism and invariant linter: a
// stdlib-only static-analysis suite (go/parser + go/types) that builds a
// module-wide call graph, computes per-function dataflow summaries to a
// fixpoint, and enforces the simulator's reproducibility contract — no
// wall-clock reads, no map-order leaks into ordered output (directly or
// through any call chain), no exact float equality, nil-guarded telemetry
// emission, order-stable float reduction, and no stale allow directives.
//
// Usage:
//
//	hpnlint          # lint every package of the module containing the working directory
//	hpnlint -rules   # list rules and what they catch
//
// Each finding prints as file:line:col with its interprocedural taint
// chain indented below it. A lone "./..." argument names the same whole
// module and is accepted for callers that spell it out.
//
// Exit status: 0 clean, 1 findings, 2 usage, load or type-check failure,
// 3 the analysis ran past its 10s budget. Intentional exceptions are
// annotated in source:
//
//	//hpnlint:allow <rule>[,<rule>] -- <justification>
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hpn/internal/lint"
)

// budget bounds the wall time of load plus analysis: a creeping-cost
// tripwire, not a perf benchmark.
const budget = 10 * time.Second

func main() {
	listRules := flag.Bool("rules", false, "list rules and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hpnlint [-rules]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listRules {
		for _, r := range lint.AllRules() {
			fmt.Printf("%-10s %s\n", r.Name(), r.Doc())
		}
		return
	}
	if flag.NArg() > 1 || (flag.NArg() == 1 && flag.Arg(0) != "./...") {
		flag.Usage()
		os.Exit(2)
	}

	// The budget clock measures the linter itself, so it legitimately reads
	// the wall clock — the thing it forbids in simulator code.
	start := time.Now() //hpnlint:allow wallclock -- lint runtime budget, not sim state

	root, module, err := lint.FindModuleRoot(".")
	if err != nil {
		fatal(err)
	}
	loader := lint.NewLoader(root, module)
	pkgs, err := loader.LoadAll()
	if err != nil {
		fatal(err)
	}
	typeErrs := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "hpnlint: typecheck %s: %v\n", pkg.ImportPath, terr)
			typeErrs = true
		}
	}
	if typeErrs {
		os.Exit(2)
	}

	diags := lint.Analyze(loader.Fset, loader.Info, pkgs, lint.AllRules())
	// Positions relative to the module root keep output stable across
	// checkouts.
	for _, d := range diags {
		d.Pos.Filename = relTo(root, d.Pos.Filename)
		for j := range d.Chain {
			d.Chain[j].Pos.Filename = relTo(root, d.Chain[j].Pos.Filename)
		}
		fmt.Println(d.Render())
	}

	elapsed := time.Since(start) //hpnlint:allow wallclock -- lint runtime budget, not sim state
	if elapsed > budget {
		fmt.Fprintf(os.Stderr, "hpnlint: analysis took %v, over the %v budget\n", elapsed.Round(time.Millisecond), budget)
		os.Exit(3)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "hpnlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// relTo maps an absolute path under root to its root-relative form,
// leaving anything else untouched.
func relTo(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hpnlint:", err)
	os.Exit(2)
}
