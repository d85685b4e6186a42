// Package lint implements hpnlint, the repo's determinism and invariant
// static-analysis suite.
//
// The simulator's core correctness contract is bit-for-bit reproducibility:
// every artifact (flow logs, traces, metrics) must be byte-identical across
// same-seed runs. That contract is easy to break silently — one stray
// time.Now, a global math/rand draw, or Go map iteration order leaking into
// an ordered output — so it is enforced by machine rather than by review
// vigilance. hpnlint parses every package with go/parser + go/types
// (standard library only, preserving the repo's no-dependency rule), builds
// a module-wide call graph, computes per-function dataflow summaries
// ("derives wall-clock time", "has ordered side effects", "returns
// map-iteration-ordered data", "parameter reaches an ordered sink") to a
// fixpoint, and reports file:line diagnostics — with the interprocedural
// taint chain attached — for these rules:
//
//   - wallclock:  no time.Now/time.Since etc. in simulator code, directly
//     or through any call chain; virtual time comes from sim.Engine.Now.
//   - globalrand: no math/rand package-level functions, directly or
//     transitively; RNG streams must flow from hpn/internal/sim.NewRNG /
//     RNG.Fork.
//   - maporder:   no map iteration whose order reaches ordered output —
//     scheduling events, emitting telemetry, building surviving slices, or
//     calling functions that (transitively) do any of those; also no
//     ranging over or sinking of data a callee built in map order.
//   - floateq:    no ==/!= between floating-point operands; the fluid
//     solver compares with epsilons.
//   - tracenil:   telemetry emission sites must sit behind a nil-tracer
//     guard — including call sites that pass a possibly-nil tracer to a
//     helper that emits on it unguarded.
//   - goorder:    goroutine results must be merged index-addressed or
//     sorted, never by channel-receive order or shared-slice append.
//   - floatacc:   no float accumulation whose reduction order depends on
//     map iteration, goroutine scheduling, or channel-receive order.
//   - seqsource:  artifact records are stamped from engine clock/sequence
//     cursors, never from function-local counters (memo replay re-stamps
//     by engine deltas; local counters silently diverge).
//   - allowstale: every //hpnlint:allow directive must still suppress a
//     finding; a stale allow is itself a finding.
//
// Intentional exceptions carry a `//hpnlint:allow <rule>` directive (see
// collectAllows in allow.go for the exact syntax). An allow at a taint
// seed also stops the summary propagation, so a justified exception does
// not cascade findings onto its callers.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Module-internal import paths the rules key on.
const (
	telemetryPath = "hpn/internal/telemetry"
	simPath       = "hpn/internal/sim"
)

// ChainFrame is one link of an interprocedural taint chain, from the
// reported sink back to the seed.
type ChainFrame struct {
	Pos  token.Position
	Note string
}

// Diagnostic is one finding at a resolved source position, with the
// summary chain that explains an interprocedural path (empty for direct
// findings).
type Diagnostic struct {
	Pos   token.Position
	Rule  string
	Msg   string
	Chain []ChainFrame
}

// String renders the diagnostic in the conventional file:line:col form,
// without the chain (see Render for the chained form).
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// Render renders the diagnostic with its taint chain, one indented line
// per frame.
func (d Diagnostic) Render() string {
	out := d.String()
	for _, f := range d.Chain {
		out += fmt.Sprintf("\n\t%s:%d:%d: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Note)
	}
	return out
}

// Rule is one invariant checker run over every loaded package.
type Rule interface {
	// Name is the identifier used in diagnostics and allow directives.
	Name() string
	// Doc is a one-line description for -rules output and docs.
	Doc() string
	// Check inspects one package and reports findings through the pass.
	Check(p *Pass)
}

// AllRules returns the full rule set in stable order.
func AllRules() []Rule {
	return []Rule{
		wallclockRule{},
		globalrandRule{},
		maporderRule{},
		floateqRule{},
		tracenilRule{},
		goorderRule{},
		floataccRule{},
		seqsourceRule{},
		allowstaleRule{},
	}
}

// knownRuleNames is the universe of valid rule names for allow directives.
func knownRuleNames() map[string]bool {
	known := map[string]bool{}
	for _, r := range AllRules() {
		known[r.Name()] = true
	}
	return known
}

// Pass carries one package through one rule.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package
	Info *types.Info
	// Prog is the module-wide program: call graph, allow sets and
	// converged summaries. Rules consult it for interprocedural facts.
	Prog *Program

	report func(pos token.Pos, rule, msg string, chain []ChainFrame)
}

// Reportf files a diagnostic unless an allow directive suppresses it.
func (p *Pass) Reportf(pos token.Pos, rule, format string, args ...any) {
	p.report(pos, rule, fmt.Sprintf(format, args...), nil)
}

// ReportChain files a diagnostic carrying an interprocedural taint chain.
func (p *Pass) ReportChain(pos token.Pos, rule, msg string, chain []ChainFrame) {
	p.report(pos, rule, msg, chain)
}

// Analysis is the result of one analyzer run: the diagnostics plus the
// program state tools (the stale-allow fixer) inspect afterwards.
type Analysis struct {
	Prog  *Program
	Diags []Diagnostic
}

// Analyze builds the module-wide program over context (a superset of
// pkgs), runs every rule over pkgs, then reports stale allow directives if
// the allowstale rule is enabled.
func Analyze(fset *token.FileSet, info *types.Info, pkgs, context []*Package, rules []Rule) *Analysis {
	prog := BuildProgram(fset, info, pkgs, context)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allows := prog.allows[pkg]
		pass := &Pass{
			Fset: fset,
			Pkg:  pkg,
			Info: info,
			Prog: prog,
			report: func(pos token.Pos, rule, msg string, chain []ChainFrame) {
				position := fset.Position(pos)
				if allows.allowed(position.Filename, position.Line, rule) {
					return
				}
				diags = append(diags, Diagnostic{Pos: position, Rule: rule, Msg: msg, Chain: chain})
			},
		}
		for _, r := range rules {
			r.Check(pass)
		}
	}
	// allowstale runs after every other rule has had its chance to mark
	// directives used; see rule_allowstale.go.
	for _, r := range rules {
		if as, ok := r.(allowstaleRule); ok {
			diags = append(diags, as.findings(prog)...)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return &Analysis{Prog: prog, Diags: diags}
}

// inspectWithStack walks the tree rooted at root, calling fn for each node
// with the stack of its ancestors (outermost first, root's ancestors
// excluded). Returning false prunes the subtree, mirroring ast.Inspect.
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// calleeFunc resolves the function or method a call expression invokes, or
// nil for builtins, conversions and indirect calls through variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// funcPkgPath returns the import path of the package declaring fn, or "".
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}
