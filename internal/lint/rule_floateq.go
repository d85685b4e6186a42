package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// floateqRule flags ==/!= between floating-point operands. The fluid
// solver's progressive filling accumulates rounding error by design, so
// exact comparison is either a latent bug (never-equal shares) or a
// portability hazard (FMA/ordering differences across architectures);
// comparisons must use an epsilon. Intentional exact guards — e.g.
// rejecting exactly 0 before math.Log — carry an allow directive with a
// justification. No test catches one: on a single host the comparison is
// as deterministic as the epsilon it replaces, so swapping the
// allocator's stale-share tolerance for an exact != passes every test.
type floateqRule struct{}

func (floateqRule) Name() string { return "floateq" }
func (floateqRule) Doc() string {
	return "no ==/!= between floating-point operands; compare with an epsilon"
}

func (floateqRule) Check(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			if !isFloat(p.Info.TypeOf(bin.X)) || !isFloat(p.Info.TypeOf(bin.Y)) {
				return true
			}
			p.Reportf(bin.OpPos, "floateq",
				"exact floating-point %s comparison between %s and %s; compare with an epsilon (math.Abs(a-b) <= eps) or justify with //hpnlint:allow floateq",
				bin.Op, types.ExprString(bin.X), types.ExprString(bin.Y))
			return true
		})
	}
}

// isFloat reports whether t is (or is based on) a floating-point type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
