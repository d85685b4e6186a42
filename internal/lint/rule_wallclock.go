package lint

import (
	"go/ast"
	"go/types"
)

// wallclockRule flags reads of the wall clock. Simulator state must evolve
// on virtual time (sim.Engine.Now) only: a single time.Now in a hot path
// makes artifacts differ between same-seed runs. Legitimate uses — CLI
// wall-time reporting around a whole run — carry an allow directive.
// A wall-clock read that reaches an artifact fails the golden suite, but
// a 10s time.After watchdog on sim.Sharded's window join passes every
// test: it changes no artifact until a slow host trips it.
//
// The rule is interprocedural: calling a module function whose summary
// says "derives wall-clock time" (directly or through any call chain whose
// seed is not allow-suppressed) is the same defect one hop removed, and is
// reported at the call site with the taint chain attached.
type wallclockRule struct{}

func (wallclockRule) Name() string { return "wallclock" }
func (wallclockRule) Doc() string {
	return "no time.Now/time.Since/timers in simulator code, directly or via any call chain; virtual time comes from sim.Engine.Now"
}

// wallclockFuncs are the package time entry points that read or depend on
// the wall clock. Pure types and constants (time.Duration, time.Second) are
// deterministic and stay legal.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
}

func (wallclockRule) Check(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				fn, ok := p.Info.Uses[n.Sel].(*types.Func)
				if !ok || funcPkgPath(fn) != "time" || !wallclockFuncs[fn.Name()] {
					return true
				}
				p.Reportf(n.Pos(), "wallclock",
					"time.%s reads the wall clock; simulator code must use virtual time (sim.Engine.Now). CLI-level run timing may carry //hpnlint:allow wallclock",
					fn.Name())
			case *ast.CallExpr:
				fi := p.Prog.FuncOf(calleeFunc(p.Info, n))
				if fi == nil || fi.sum.Wall == nil {
					return true
				}
				p.ReportChain(n.Pos(), "wallclock",
					"call to "+fi.Name()+" derives wall-clock time outside sim.Engine (interprocedural); use virtual time or justify the seed with //hpnlint:allow wallclock",
					p.Prog.chain(fi.sum.Wall, factWall))
			}
			return true
		})
	}
}
