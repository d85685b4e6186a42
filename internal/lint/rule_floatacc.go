package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// floataccRule flags floating-point accumulation whose reduction order is
// not deterministic: float addition is not associative, so the same values
// reduced in a different order give a different bit pattern — the exact
// class of bug that breaks byte-identical artifacts when an engine goes
// parallel. Three order-unstable contexts are checked:
//
//   - map iteration:    sum += v inside `for ... range m`
//   - goroutine bodies: accumulating into state declared outside a
//     go-launched function literal (scheduling order, even under a mutex)
//   - channel merges:   accumulating received results in a receive loop
//
// The rule is interprocedural: calling a function whose summary says it
// accumulates float state it does not own, from any of those contexts, is
// the same defect one call boundary away and is reported with the chain.
// Deterministic-order reductions (plain slice loops) and integer
// accumulation (associative) stay clean; a deliberately order-independent
// parallel reduction (disjoint partitions, exact merges) carries a
// justified //hpnlint:allow floatacc.
//
// Summing health's folded size-class rates in map order passes every
// test: the drift stays in the last bits of a running mean that no
// artifact prints and no threshold in the golden cases sits next to.
type floataccRule struct{}

func (floataccRule) Name() string { return "floatacc" }
func (floataccRule) Doc() string {
	return "no float accumulation whose reduction order depends on map iteration, goroutine scheduling, or channel-receive order"
}

func (floataccRule) Check(p *Pass) {
	for _, f := range p.Pkg.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				p.checkFloatAccum(n, stack)
			case *ast.CallExpr:
				p.checkFloatAccumCall(n, stack)
			}
			return true
		})
	}
}

// floatAccumOps are the compound assignments whose result depends on
// operand order (float + and * are not associative; - and / inherit it).
func isFloatAccumOp(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return true
	}
	return false
}

// checkFloatAccum flags a compound float assignment inside an
// order-unstable context when the accumulator outlives that context.
func (p *Pass) checkFloatAccum(as *ast.AssignStmt, stack []ast.Node) {
	if len(as.Lhs) != 1 || !isFloatAccumOp(as.Tok) || !isFloat(p.Info.TypeOf(as.Lhs[0])) {
		return
	}
	lhs := ast.Unparen(as.Lhs[0])
	if ctx, ok := p.orderUnstableContext(stack, lhs); ok {
		p.Reportf(as.Pos(), "floatacc",
			"float accumulation into %s reduces in %s; accumulate per-partition and merge in a fixed order, or iterate a sorted snapshot",
			types.ExprString(lhs), ctx)
	}
}

// checkFloatAccumCall flags calls, from an order-unstable context, to
// functions whose summary says they accumulate float state they do not
// own.
func (p *Pass) checkFloatAccumCall(call *ast.CallExpr, stack []ast.Node) {
	fi := p.Prog.FuncOf(calleeFunc(p.Info, call))
	if fi == nil || fi.sum.FloatAcc == nil {
		return
	}
	if ctx, ok := p.orderUnstableContext(stack, nil); ok {
		p.ReportChain(call.Pos(), "floatacc",
			"call to "+fi.Name()+" accumulates float state in "+ctx+" (interprocedural); the reduction order is nondeterministic — partition the state or fix the call order",
			p.Prog.chain(fi.sum.FloatAcc, factFloatAcc))
	}
}

// orderUnstableContext scans the ancestor stack for the innermost context
// whose execution order differs run to run: a map range, a go-launched
// function literal, or a channel-receive loop. When acc is non-nil, the
// context only counts if the accumulator is declared outside it (an
// accumulator scoped inside the context is reduced deterministically
// within one iteration).
func (p *Pass) orderUnstableContext(stack []ast.Node, acc ast.Expr) (string, bool) {
	outlives := func(node ast.Node) bool {
		if acc == nil {
			return true
		}
		id, ok := acc.(*ast.Ident)
		if !ok {
			return true // selector/index/deref: survives by construction
		}
		obj := p.Info.ObjectOf(id)
		if obj == nil {
			return true
		}
		return obj.Pos() < node.Pos() || obj.Pos() > node.End()
	}
	for i := len(stack) - 1; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.RangeStmt:
			t := p.Info.TypeOf(anc.X)
			if t == nil {
				continue
			}
			switch t.Underlying().(type) {
			case *types.Map:
				if outlives(anc) {
					return "map iteration order", true
				}
			case *types.Chan:
				if outlives(anc) {
					return "channel-receive order", true
				}
			}
		case *ast.ForStmt:
			if containsChanReceive(p.Info, anc.Body) && outlives(anc) {
				return "channel-receive order", true
			}
		case *ast.FuncLit:
			// A go-launched literal sits under GoStmt → CallExpr → FuncLit.
			if i >= 2 {
				call, isCall := stack[i-1].(*ast.CallExpr)
				if isCall && call.Fun == anc {
					if gs, isGo := stack[i-2].(*ast.GoStmt); isGo && gs.Call == call && outlives(anc) {
						return "goroutine scheduling order", true
					}
				}
			}
		}
	}
	return "", false
}

// containsChanReceive reports whether body receives from a channel
// (outside nested function literals).
func containsChanReceive(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		}
		return !found
	})
	return found
}
