package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// tracenilRule enforces the repo's telemetry cost contract: every
// emission-method call on a *telemetry.Tracer sits behind an explicit
// nil-tracer guard, so a disabled tracer costs exactly one branch — not the
// construction of a telemetry.Arg slice and its values. The methods are
// nil-safe, so nothing crashes without the guard; what the rule protects is
// the "telemetry off means near-zero overhead" guarantee on hot paths.
//
// Recognized guard shapes (receiver expression X rendered textually):
//
//	if X != nil { ... X.Instant(...) ... }     // enclosing-if form
//	if X == nil { return }; ...; X.Instant(...) // early-return form
//
// The telemetry package itself is exempt: it owns the nil-safety.
//
// The rule is also interprocedural: a helper that emits on a tracer
// parameter without guarding it exports the guard obligation to its
// callers, so passing a possibly-nil tracer to such a helper unguarded is
// reported at the call site with the chain down to the emission.
type tracenilRule struct{}

func (tracenilRule) Name() string { return "tracenil" }
func (tracenilRule) Doc() string {
	return "Tracer emission calls (Complete/Instant/Counter) must sit behind a nil-tracer guard, including through helpers emitting on a tracer parameter"
}

// tracerEmitMethods are the per-event emission entry points; metadata and
// export methods (NameThread, WriteTo, ...) run once per run and are
// exempt.
var tracerEmitMethods = map[string]bool{
	"Complete": true,
	"Instant":  true,
	"Counter":  true,
}

func (tracenilRule) Check(p *Pass) {
	if p.Pkg.ImportPath == telemetryPath {
		return
	}
	for _, f := range p.Pkg.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				checkParamEmitCall(p, call, stack)
				return true
			}
			fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if !ok || funcPkgPath(fn) != telemetryPath || !tracerEmitMethods[fn.Name()] {
				checkParamEmitCall(p, call, stack)
				return true
			}
			if !isTracerMethod(fn) {
				return true // e.g. Registry.Counter, a constructor not an emitter
			}
			recv := types.ExprString(sel.X)
			if guardedNotNil(stack, call, recv) {
				return true
			}
			p.Reportf(call.Pos(), "tracenil",
				"%s.%s() is not behind a nil-tracer guard; wrap it in `if %s != nil { ... }` (or early-return on nil) so disabled telemetry costs one branch",
				recv, fn.Name(), recv)
			return true
		})
	}
}

// checkParamEmitCall is the interprocedural half of the rule: a call
// passing a possibly-nil tracer expression into a parameter whose summary
// says it is emitted on unguarded. Known-non-nil arguments (calls,
// composite literals, addresses) are exempt.
func checkParamEmitCall(p *Pass, call *ast.CallExpr, stack []ast.Node) {
	fi := p.Prog.FuncOf(calleeFunc(p.Info, call))
	if fi == nil || len(fi.sum.ParamEmit) == 0 {
		return
	}
	sig, ok := fi.Obj.Type().(*types.Signature)
	if !ok {
		return
	}
	for ai, arg := range call.Args {
		target := ai
		if sig.Variadic() && target >= sig.Params().Len()-1 {
			target = sig.Params().Len() - 1
		}
		emit := fi.sum.ParamEmit[target]
		if emit == nil {
			continue
		}
		switch ast.Unparen(arg).(type) {
		case *ast.CallExpr, *ast.CompositeLit, *ast.UnaryExpr:
			continue // freshly constructed, cannot be nil
		}
		expr := types.ExprString(ast.Unparen(arg))
		if expr == "nil" || guardedNotNil(stack, call, expr) {
			continue
		}
		p.ReportChain(arg.Pos(), "tracenil",
			"passes possibly-nil tracer "+expr+" to "+fi.Name()+", which emits on it without a nil guard (interprocedural); guard the call or the emission",
			p.Prog.chain(emit, factParamEmit))
	}
}

// isTracerEmit reports whether fn is a per-event Tracer emission method
// called from outside the telemetry package (which owns the nil-safety).
func isTracerEmit(pkg *Package, fn *types.Func) bool {
	return funcPkgPath(fn) == telemetryPath && pkg.ImportPath != telemetryPath &&
		tracerEmitMethods[fn.Name()] && isTracerMethod(fn)
}

// isTracerMethod reports whether fn is a method whose receiver is
// (*telemetry.)Tracer.
func isTracerMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Tracer"
}

// guardedNotNil reports whether the call node is dominated by a nil check
// on the receiver expression recv: either inside an if whose condition
// requires recv != nil, or preceded in an enclosing block by an
// `if recv == nil { return }` statement.
func guardedNotNil(stack []ast.Node, call ast.Node, recv string) bool {
	child := call
	for i := len(stack) - 1; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.IfStmt:
			if anc.Body == child && condRequiresNotNil(anc.Cond, recv) {
				return true
			}
		case *ast.BlockStmt:
			for idx, st := range anc.List {
				if st != child {
					continue
				}
				for _, prev := range anc.List[:idx] {
					if isNilEarlyReturn(prev, recv) {
						return true
					}
				}
				break
			}
		}
		child = stack[i]
	}
	return false
}

// condRequiresNotNil reports whether cond can only be true when
// `recv != nil` holds, looking through && conjunctions.
func condRequiresNotNil(cond ast.Expr, recv string) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			return condRequiresNotNil(e.X, recv) || condRequiresNotNil(e.Y, recv)
		case token.NEQ:
			return isNilComparison(e, recv)
		}
	}
	return false
}

// isNilEarlyReturn matches `if recv == nil { return ... }`.
func isNilEarlyReturn(st ast.Stmt, recv string) bool {
	ifst, ok := st.(*ast.IfStmt)
	if !ok || ifst.Init != nil || len(ifst.Body.List) == 0 {
		return false
	}
	bin, ok := ast.Unparen(ifst.Cond).(*ast.BinaryExpr)
	if !ok || bin.Op != token.EQL || !isNilComparison(bin, recv) {
		return false
	}
	_, ok = ifst.Body.List[len(ifst.Body.List)-1].(*ast.ReturnStmt)
	return ok
}

// isNilComparison reports whether bin compares the receiver expression
// against the nil identifier (in either operand order).
func isNilComparison(bin *ast.BinaryExpr, recv string) bool {
	matches := func(x, y ast.Expr) bool {
		id, ok := ast.Unparen(y).(*ast.Ident)
		return ok && id.Name == "nil" && types.ExprString(ast.Unparen(x)) == recv
	}
	return matches(bin.X, bin.Y) || matches(bin.Y, bin.X)
}
