package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The source importer behind a Loader costs a few seconds of stdlib
// parsing, so all tests share one Loader rooted at the repo's module.
var sharedLoader struct {
	once   sync.Once
	loader *Loader
	err    error
}

func testLoader(t *testing.T) *Loader {
	t.Helper()
	sharedLoader.once.Do(func() {
		wd, err := os.Getwd()
		if err != nil {
			sharedLoader.err = err
			return
		}
		root, module, err := FindModuleRoot(wd)
		if err != nil {
			sharedLoader.err = err
			return
		}
		sharedLoader.loader = NewLoader(root, module)
	})
	if sharedLoader.err != nil {
		t.Fatalf("locating module root: %v", sharedLoader.err)
	}
	return sharedLoader.loader
}

// LoadAll lists each package once, although a directory's files and its
// subdirectories interleave in the walk: a package listed twice is linted
// twice, and each of its findings reported twice.
func TestLoadAllListsEachPackageOnce(t *testing.T) {
	pkgs, err := testLoader(t).LoadAll()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		if seen[pkg.ImportPath] {
			t.Errorf("LoadAll lists %s more than once", pkg.ImportPath)
		}
		seen[pkg.ImportPath] = true
	}
}

// want is one expected diagnostic, declared in a fixture as
//
//	// want:<rule> "substring of the message"
//
// on the line the diagnostic must point at.
type want struct {
	file    string
	line    int
	rule    string
	substr  string
	matched bool
}

var wantRe = regexp.MustCompile(`// want:([a-z]+) "([^"]*)"`)

func collectWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("opening fixture: %v", err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				wants = append(wants, &want{file: path, line: line, rule: m[1], substr: m[2]})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scanning fixture: %v", err)
		}
		f.Close()
	}
	return wants
}

// checkFixture lints testdata/src/<name> with the given rules and demands
// an exact bidirectional match between diagnostics and want comments:
// every diagnostic must be expected, and every expectation must fire.
// Running with a rule removed therefore fails on that rule's wants.
func checkFixture(t *testing.T, name string, rules []Rule) {
	t.Helper()
	ld := testLoader(t)
	dir := filepath.Join("testdata", "src", name)
	pkg, err := ld.LoadDir(dir, "hpnlint.fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s does not type-check: %v", name, terr)
	}
	wants := collectWants(t, dir)
	if len(wants) == 0 {
		t.Fatalf("fixture %s declares no want comments", name)
	}
	diags := Analyze(ld.Fset, ld.Info, []*Package{pkg}, rules)

	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.line != d.Pos.Line || w.rule != d.Rule {
				continue
			}
			if sameFile(w.file, d.Pos.Filename) && strings.Contains(d.Msg, w.substr) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected %s diagnostic containing %q, got none",
				w.file, w.line, w.rule, w.substr)
		}
	}
}

func sameFile(a, b string) bool {
	aa, err1 := filepath.Abs(a)
	bb, err2 := filepath.Abs(b)
	if err1 != nil || err2 != nil {
		return filepath.Base(a) == filepath.Base(b)
	}
	return aa == bb
}

func TestFixtureWallclock(t *testing.T)  { checkFixture(t, "wallclock", AllRules()) }
func TestFixtureMaporder(t *testing.T)   { checkFixture(t, "maporder", AllRules()) }
func TestFixtureFloateq(t *testing.T)    { checkFixture(t, "floateq", AllRules()) }
func TestFixtureTracenil(t *testing.T)   { checkFixture(t, "tracenil", AllRules()) }
func TestFixtureFloatacc(t *testing.T)   { checkFixture(t, "floatacc", AllRules()) }
func TestFixtureAllowstale(t *testing.T) { checkFixture(t, "allowstale", AllRules()) }

// TestFixtureInterproc covers the summary-based core: map-iteration order
// crossing call boundaries (counter-indexed builder → RMO summary →
// caller leak / parameter sink) that the old single-function rule could
// not see.
func TestFixtureInterproc(t *testing.T) { checkFixture(t, "interproc", AllRules()) }

// TestInterprocChains pins the explainability contract: every
// interprocedural diagnostic carries a taint chain, and Render shows it
// as indented file:line frames.
func TestInterprocChains(t *testing.T) {
	ld := testLoader(t)
	pkg, err := ld.LoadDir(filepath.Join("testdata", "src", "interproc"), "hpnlint.fixture/interproc")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := Analyze(ld.Fset, ld.Info, []*Package{pkg}, AllRules())
	if len(diags) == 0 {
		t.Fatal("interproc fixture produced no diagnostics")
	}
	for _, d := range diags {
		if len(d.Chain) == 0 {
			t.Errorf("interprocedural diagnostic has no taint chain: %s", d)
			continue
		}
		rendered := d.Render()
		if !strings.Contains(rendered, "\n\t") {
			t.Errorf("Render() does not show the chain:\n%s", rendered)
		}
		for _, f := range d.Chain {
			if f.Pos.Line == 0 || f.Note == "" {
				t.Errorf("chain frame missing position or note in: %s", rendered)
			}
		}
	}
}

// TestFixturesFailWithRuleDisabled is the inverse guard: dropping any
// single rule from the set must leave that fixture's wants unmatched.
// It re-implements the matching loop in miniature so a silently
// weakened rule cannot pass by accident.
func TestFixturesFailWithRuleDisabled(t *testing.T) {
	ld := testLoader(t)
	for _, r := range AllRules() {
		name := r.Name()
		var kept []Rule
		for _, other := range AllRules() {
			if other.Name() != name {
				kept = append(kept, other)
			}
		}
		dir := filepath.Join("testdata", "src", name)
		pkg, err := ld.LoadDir(dir, "hpnlint.fixture/"+name)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", name, err)
		}
		diags := Analyze(ld.Fset, ld.Info, []*Package{pkg}, kept)
		for _, d := range diags {
			if d.Rule == name {
				t.Errorf("rule %s disabled but still reported: %s", name, d)
			}
		}
		// The fixture must carry wants for its own rule, and with the
		// rule disabled none of them can be satisfied.
		sawWant := false
		for _, w := range collectWants(t, dir) {
			if w.rule == name {
				sawWant = true
			}
		}
		if !sawWant {
			t.Errorf("fixture %s has no wants for its own rule", name)
		}
	}
}

// TestRepoIsClean is the acceptance gate: hpnlint over the whole module
// must produce zero diagnostics, and every package must type-check. The
// commands and examples must be among the packages linted, and a finding
// is reported with its taint chain.
func TestRepoIsClean(t *testing.T) {
	ld := testLoader(t)
	pkgs, err := ld.LoadAll()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	loaded := map[string]bool{}
	for _, pkg := range pkgs {
		loaded[pkg.ImportPath] = true
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.ImportPath, terr)
		}
	}
	for _, path := range []string{ld.Module + "/cmd/hpnlint", ld.Module + "/cmd/hpnsim", ld.Module + "/examples/quickstart", ld.Module + "/examples/training"} {
		if !loaded[path] {
			t.Errorf("package %s was not loaded, so it is not linted", path)
		}
	}
	for _, d := range Analyze(ld.Fset, ld.Info, pkgs, AllRules()) {
		t.Errorf("repo not lint-clean: %s", d.Render())
	}
}

// TestDiagnosticsSorted pins the deterministic output order the CLI
// relies on: file, then line, then column, then rule.
func TestDiagnosticsSorted(t *testing.T) {
	ld := testLoader(t)
	var all []Diagnostic
	for _, name := range []string{"floateq", "wallclock"} {
		pkg, err := ld.LoadDir(filepath.Join("testdata", "src", name), "hpnlint.fixture/"+name)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", name, err)
		}
		all = append(all, Analyze(ld.Fset, ld.Info, []*Package{pkg}, AllRules())...)
	}
	// Analyze sorts within one call; a combined stream sorted the same way
	// must agree with per-call order concatenated per package.
	sorted := sort.SliceIsSorted(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Column < b.Pos.Column
	})
	// The two fixture files sort by path (floateq < wallclock), so the
	// concatenation should already be globally sorted.
	if !sorted {
		var lines []string
		for _, d := range all {
			lines = append(lines, d.String())
		}
		t.Fatalf("diagnostics not in deterministic order:\n%s", strings.Join(lines, "\n"))
	}
}

// TestStaleAllowsReported pins what the allowstale post-phase reports on
// the allowstale fixture: exactly the directives that suppress nothing,
// with unknown rule names always stale.
func TestStaleAllowsReported(t *testing.T) {
	ld := testLoader(t)
	pkg, err := ld.LoadDir(filepath.Join("testdata", "src", "allowstale"), "hpnlint.fixture/allowstale")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	var got []string
	for _, d := range Analyze(ld.Fset, ld.Info, []*Package{pkg}, AllRules()) {
		if d.Rule == "allowstale" {
			got = append(got, strings.SplitN(d.Msg, ";", 2)[0])
		}
	}
	want := []string{
		"//hpnlint:allow maporder no longer suppresses any finding",
		"//hpnlint:allow floatacc no longer suppresses any finding",
		"//hpnlint:allow names unknown rule nosuchrule",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("stale allows = %q, want %q", got, want)
	}
}

// TestParseAllowDirective covers the directive grammar documented at
// collectAllows: comma-separated rule list, optional "-- justification".
func TestParseAllowDirective(t *testing.T) {
	cases := []struct {
		in    string
		rules []string
		ok    bool
	}{
		{"//hpnlint:allow wallclock", []string{"wallclock"}, true},
		{"//hpnlint:allow wallclock -- CLI timing", []string{"wallclock"}, true},
		{"//hpnlint:allow floateq,maporder", []string{"floateq", "maporder"}, true},
		{"//hpnlint:allow floateq, maporder -- both fine", []string{"floateq", "maporder"}, true},
		{"//hpnlint:allow", nil, false},
		{"// hpnlint:allow wallclock", nil, false},
		{"// plain comment", nil, false},
	}
	for _, c := range cases {
		rules, ok := parseAllowDirective(c.in)
		if ok != c.ok {
			t.Errorf("parseAllowDirective(%q) ok = %v, want %v", c.in, ok, c.ok)
			continue
		}
		if fmt.Sprint(rules) != fmt.Sprint(c.rules) && c.ok {
			t.Errorf("parseAllowDirective(%q) = %v, want %v", c.in, rules, c.rules)
		}
	}
}
