// Command hpnlint is the repo's determinism and invariant linter: a
// stdlib-only static-analysis suite (go/parser + go/types) that builds a
// module-wide call graph, computes per-function dataflow summaries to a
// fixpoint, and enforces the simulator's reproducibility contract — no
// wall-clock reads, no global math/rand, no map-order leaks into ordered
// output (directly or through any call chain), no exact float equality,
// nil-guarded telemetry emission, order-stable goroutine merges,
// order-stable float reduction, engine-cursor record stamping, and no
// stale allow directives.
//
// Usage:
//
//	hpnlint ./...               # lint every package in the module
//	hpnlint ./internal/...      # lint a subtree (summaries still span imports)
//	hpnlint -json ./...         # machine-readable findings with taint chains
//	hpnlint -fix-allows ./...   # delete stale //hpnlint:allow directives
//	hpnlint -budget 10s ./...   # fail if the analysis exceeds the budget
//	hpnlint -rules              # list rules and what they catch
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure, 3 budget
// exceeded. Intentional exceptions are annotated in source:
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

func main() {
	var (
		listRules = flag.Bool("rules", false, "list rules and exit")
		strict    = flag.Bool("strict", false, "treat type-check warnings as failures")
		jsonOut   = flag.Bool("json", false, "emit findings as a JSON array with taint chains")
		fixAllows = flag.Bool("fix-allows", false, "delete stale //hpnlint:allow directives in place")
		budget    = flag.Duration("budget", 0, "fail (exit 3) if load+analysis exceeds this duration")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hpnlint [-rules] [-strict] [-json] [-fix-allows] [-budget 10s] ./... | dir ...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listRules {
		for _, r := range lint.AllRules() {
			fmt.Printf("%-10s %s\n", r.Name(), r.Doc())
		}
		return
	}
	if flag.NArg() == 0 {
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

	var pkgs []*lint.Package
	seen := map[string]bool{}
	for _, arg := range flag.Args() {
		loaded, err := loadArg(loader, root, arg)
		if err != nil {
			fatal(err)
		}
		for _, pkg := range loaded {
			if !seen[pkg.ImportPath] {
				seen[pkg.ImportPath] = true
				pkgs = append(pkgs, pkg)
			}
		}
	}

	warned := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "hpnlint: typecheck %s: %v\n", pkg.ImportPath, terr)
			warned = true
		}
	}
	if warned && *strict {
		os.Exit(2)
	}

	// Summaries are computed over everything the loader pulled in (the
	// requested packages plus their module-internal imports), so linting a
	// subtree still sees through calls into the rest of the module.
	analysis := lint.Analyze(loader.Fset, loader.Info, pkgs, loader.Loaded(), lint.AllRules())
	diags := analysis.Diags

	if *fixAllows {
		stale := analysis.Prog.StaleAllows()
		fixed, err := lint.FixAllows(stale)
		for _, f := range fixed {
			if rel, rerr := filepath.Rel(root, f); rerr == nil {
				f = rel
			}
			fmt.Printf("hpnlint: fixed %s\n", f)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "hpnlint: removed %d stale allow directive(s) in %d file(s)\n", len(stale), len(fixed))
		return
	}

	// Positions relative to the module root keep output stable across
	// checkouts.
	for i := range diags {
		diags[i].Pos.Filename = relTo(root, diags[i].Pos.Filename)
		for j := range diags[i].Chain {
			diags[i].Chain[j].Pos.Filename = relTo(root, diags[i].Chain[j].Pos.Filename)
		}
	}

	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.Render())
		}
	}

	elapsed := time.Since(start) //hpnlint:allow wallclock -- lint runtime budget, not sim state
	if *budget > 0 && elapsed > *budget {
		fmt.Fprintf(os.Stderr, "hpnlint: analysis took %v, over the %v budget\n", elapsed.Round(time.Millisecond), *budget)
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

// loadArg resolves one command-line argument: "./..."-style patterns load
// the whole subtree, plain paths load a single package directory.
func loadArg(loader *lint.Loader, root, arg string) ([]*lint.Package, error) {
	if arg == "all" || arg == "./..." || arg == "..." {
		return loader.LoadAll()
	}
	if rest, ok := strings.CutSuffix(arg, "/..."); ok {
		all, err := loader.LoadAll()
		if err != nil {
			return nil, err
		}
		prefix, err := filepath.Abs(rest)
		if err != nil {
			return nil, err
		}
		var out []*lint.Package
		for _, pkg := range all {
			if pkg.Dir == prefix || strings.HasPrefix(pkg.Dir, prefix+string(filepath.Separator)) {
				out = append(out, pkg)
			}
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("hpnlint: no packages under %s", arg)
		}
		return out, nil
	}
	dir, err := filepath.Abs(arg)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("hpnlint: %s is outside module root %s", arg, root)
	}
	importPath := module(loader, rel)
	pkg, err := loader.LoadDir(dir, importPath)
	if err != nil {
		return nil, err
	}
	return []*lint.Package{pkg}, nil
}

func module(loader *lint.Loader, rel string) string {
	if rel == "." {
		return loader.Module
	}
	return loader.Module + "/" + filepath.ToSlash(rel)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hpnlint:", err)
	os.Exit(2)
}
