package lint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Run applies rules to pkgs and returns the surviving diagnostics sorted
// by position, with summaries computed over pkgs only.
func Run(fset *token.FileSet, info *types.Info, pkgs []*Package, rules []Rule) []Diagnostic {
	return Analyze(fset, info, pkgs, pkgs, rules).Diags
}

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
	diags := Run(ld.Fset, ld.Info, []*Package{pkg}, rules)

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
func TestFixtureGlobalrand(t *testing.T) { checkFixture(t, "globalrand", AllRules()) }
func TestFixtureMaporder(t *testing.T)   { checkFixture(t, "maporder", AllRules()) }
func TestFixtureFloateq(t *testing.T)    { checkFixture(t, "floateq", AllRules()) }
func TestFixtureTracenil(t *testing.T)   { checkFixture(t, "tracenil", AllRules()) }
func TestFixtureGoorder(t *testing.T)    { checkFixture(t, "goorder", AllRules()) }
func TestFixtureFloatacc(t *testing.T)   { checkFixture(t, "floatacc", AllRules()) }
func TestFixtureSeqsource(t *testing.T)  { checkFixture(t, "seqsource", AllRules()) }
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
	diags := Run(ld.Fset, ld.Info, []*Package{pkg}, AllRules())
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
		diags := Run(ld.Fset, ld.Info, []*Package{pkg}, kept)
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
// must produce zero diagnostics, and every package must type-check.
func TestRepoIsClean(t *testing.T) {
	ld := testLoader(t)
	pkgs, err := ld.LoadAll()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 5 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.ImportPath, terr)
		}
	}
	diags := Run(ld.Fset, ld.Info, pkgs, AllRules())
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
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
		all = append(all, Run(ld.Fset, ld.Info, []*Package{pkg}, AllRules())...)
	}
	// Run sorts within one call; a combined stream sorted the same way
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

// TestStaleAllowsReported pins what the allowstale post-phase sees on the
// allowstale fixture: exactly the directives that suppress nothing, with
// unknown rule names always stale.
func TestStaleAllowsReported(t *testing.T) {
	ld := testLoader(t)
	pkg, err := ld.LoadDir(filepath.Join("testdata", "src", "allowstale"), "hpnlint.fixture/allowstale")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	a := Analyze(ld.Fset, ld.Info, []*Package{pkg}, []*Package{pkg}, AllRules())
	stale := a.Prog.StaleAllows()
	var got []string
	for _, sa := range stale {
		tag := sa.Rule
		if sa.Unknown {
			tag += "(unknown)"
		}
		got = append(got, tag)
	}
	want := []string{"maporder", "globalrand", "nosuchrule(unknown)"}
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("stale allows = %v, want %v", got, want)
	}
}

// TestWriteJSON pins the machine-readable output shape CI consumes.
func TestWriteJSON(t *testing.T) {
	diags := []Diagnostic{{
		Pos:  token.Position{Filename: "a.go", Line: 3, Column: 7},
		Rule: "maporder",
		Msg:  "order leak",
		Chain: []ChainFrame{
			{Pos: token.Position{Filename: "b.go", Line: 9, Column: 2}, Note: "returns map-iteration-ordered data"},
		},
	}}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, diags); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var got []struct {
		Rule, File, Msg string
		Line, Col       int
		Chain           []struct {
			File, Note string
			Line, Col  int
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(got) != 1 || got[0].Rule != "maporder" || got[0].File != "a.go" ||
		got[0].Line != 3 || got[0].Col != 7 || got[0].Msg != "order leak" {
		t.Errorf("unexpected diagnostic encoding: %s", buf.String())
	}
	if len(got[0].Chain) != 1 || got[0].Chain[0].File != "b.go" || got[0].Chain[0].Line != 9 ||
		got[0].Chain[0].Note != "returns map-iteration-ordered data" {
		t.Errorf("unexpected chain encoding: %s", buf.String())
	}

	buf.Reset()
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatalf("WriteJSON(nil): %v", err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Errorf("empty run should encode as [], got %q", buf.String())
	}
}

// TestFixAllows covers the mechanical stale-directive removal: single
// stale token drops the comment, mixed directives keep the live tokens
// and the justification, comment-only lines disappear entirely.
func TestFixAllows(t *testing.T) {
	dir := t.TempDir()
	src := `package p

var a = 1 //hpnlint:allow maporder -- stale
var b = 2 //hpnlint:allow floateq,maporder -- half stale
//hpnlint:allow wallclock -- standalone stale
var c = 3
`
	path := filepath.Join(dir, "f.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := []StaleAllow{
		{Pos: token.Position{Filename: path, Line: 3}, Rule: "maporder"},
		{Pos: token.Position{Filename: path, Line: 4}, Rule: "maporder"},
		{Pos: token.Position{Filename: path, Line: 5}, Rule: "wallclock"},
	}
	fixed, err := FixAllows(stale)
	if err != nil {
		t.Fatalf("FixAllows: %v", err)
	}
	if len(fixed) != 1 || fixed[0] != path {
		t.Errorf("fixed = %v, want [%s]", fixed, path)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := `package p

var a = 1
var b = 2 //hpnlint:allow floateq -- half stale
var c = 3
`
	if string(got) != want {
		t.Errorf("rewritten file:\n%s\nwant:\n%s", got, want)
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
