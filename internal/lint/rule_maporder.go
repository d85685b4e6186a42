package lint

import (
	"go/ast"
	"go/types"
)

// maporderRule flags code paths that let Go's randomized map iteration
// order reach ordered output. Intraprocedurally that is a `range` over a
// map whose body schedules simulator events, appends to a slice that
// outlives the loop, or emits telemetry. Interprocedurally — using the
// module-wide summaries — it also flags:
//
//   - a map-range body calling a function that (transitively) has ordered
//     side effects: schedules, emits, feeds a fingerprint hasher, or
//     appends to surviving state. The call order is map order, so the
//     callee's ordered output inherits it.
//   - ranging over data a callee built in map-iteration order (a
//     "returns map-ordered" summary), when the loop body leaks order.
//   - passing map-iteration-ordered data into a parameter that reaches an
//     ordered artifact writer or fingerprint hasher.
//
// The canonical fix — collect keys, sort, iterate the sorted slice — is
// recognized and not flagged: an append whose target is later passed to a
// sort.* / slices.Sort* call in the same function is considered ordered.
//
// The golden suite catches map order that reaches the metrics export, but
// health's flap sweep ranging m.flapIdx instead of m.flapList passes every
// test: no golden case has two flapping cables at once, so the map never
// holds two keys.
type maporderRule struct{}

func (maporderRule) Name() string { return "maporder" }
func (maporderRule) Doc() string {
	return "no map iteration order reaching ordered output — events, telemetry, surviving slices, hashers — directly or through calls"
}

// simSchedulingFuncs are the engine entry points that enqueue events; map
// order reaching the event heap reorders same-timestamp dispatches.
var simSchedulingFuncs = map[string]bool{
	"Schedule":       true,
	"ScheduleAt":     true,
	"ScheduleDaemon": true,
	"Cancel":         true,
}

func (maporderRule) Check(p *Pass) {
	for _, f := range p.Pkg.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				t := p.Info.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, ok := t.Underlying().(*types.Map); ok {
					if reason, chain := p.maporderTrigger(n, enclosingFuncBody(stack)); reason != "" {
						p.ReportChain(n.Pos(), "maporder",
							"iteration over map "+types.ExprString(n.X)+" leaks Go's randomized order into "+reason+"; iterate a sorted key slice or a parallel ordered slice",
							chain)
					}
					return true
				}
				// Ranging over a value a callee built in map order: same
				// defect one call boundary away.
				if src := p.mapOrderedSource(n.X, stack); src != nil {
					if reason, chain := p.maporderTrigger(n, enclosingFuncBody(stack)); reason != "" {
						full := append(p.Prog.chain(src, factRMO), chain...)
						p.ReportChain(n.Pos(), "maporder",
							"iteration over "+types.ExprString(n.X)+" follows map-iteration order from a callee (interprocedural) and leaks it into "+reason+"; sort before iterating",
							full)
					}
				}
			case *ast.CallExpr:
				p.checkMapOrderedArgs(n, stack)
			}
			return true
		})
	}
}

// checkMapOrderedArgs flags map-iteration-ordered values passed into
// parameters whose summary says they reach an ordered sink.
func (p *Pass) checkMapOrderedArgs(call *ast.CallExpr, stack []ast.Node) {
	fi := p.Prog.FuncOf(calleeFunc(p.Info, call))
	if fi == nil || len(fi.sum.ParamSink) == 0 {
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
		sink := fi.sum.ParamSink[target]
		if sink == nil {
			continue
		}
		src := p.mapOrderedSource(arg, stack)
		if src == nil {
			continue
		}
		chain := append(p.Prog.chain(src, factRMO), p.Prog.chain(sink, factParamSink)...)
		p.ReportChain(arg.Pos(), "maporder",
			"map-iteration-ordered value "+types.ExprString(arg)+" flows into parameter "+paramName(fi, target)+" of "+fi.Name()+", which reaches an ordered sink (interprocedural); sort it first",
			chain)
	}
}

// mapOrderedSource resolves whether an expression carries map-iteration
// order: a local the enclosing function built (or received) in map order,
// or a direct call to a returns-map-ordered function.
func (p *Pass) mapOrderedSource(e ast.Expr, stack []ast.Node) *prov {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		fi := p.enclosingFuncInfo(stack)
		if fi == nil {
			return nil
		}
		return fi.moLocals[p.Info.ObjectOf(e)]
	case *ast.CallExpr:
		callee := p.Prog.FuncOf(calleeFunc(p.Info, e))
		if callee != nil && callee.sum.RMO != nil {
			return &prov{pos: e.Pos(), desc: "call to " + callee.Name() + ", which returns map-iteration-ordered data", next: callee}
		}
	}
	return nil
}

// enclosingFuncInfo resolves the FuncInfo of the declaration the walk is
// currently inside, via the ancestor stack.
func (p *Pass) enclosingFuncInfo(stack []ast.Node) *FuncInfo {
	for i := 0; i < len(stack); i++ {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				return p.Prog.FuncOf(obj)
			}
		}
	}
	return nil
}

// enclosingFuncBody returns the body of the innermost enclosing function,
// used to look for a sort call after the range statement.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// maporderTrigger scans the range body for the first order-leaking
// operation and describes it (with an interprocedural chain when the leak
// goes through a callee), or returns "" when the body is
// order-independent.
func (p *Pass) maporderTrigger(rs *ast.RangeStmt, fnBody *ast.BlockStmt) (string, []ChainFrame) {
	var reason string
	var chain []ChainFrame
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(call.Args) > 0 {
				target := call.Args[0]
				if p.escapesRange(target, rs) && !p.sortedAfter(target, rs, fnBody) {
					reason = "the surviving slice " + types.ExprString(target)
				}
				return true
			}
		}
		fn := calleeFunc(p.Info, call)
		if fn == nil {
			return true
		}
		switch funcPkgPath(fn) {
		case telemetryPath:
			if p.Pkg.ImportPath != telemetryPath {
				reason = "telemetry emission order (" + fn.Name() + ")"
				return true
			}
		case simPath:
			if simSchedulingFuncs[fn.Name()] {
				reason = "simulator event order (sim." + fn.Name() + ")"
				return true
			}
		}
		// Interprocedural: the body calls a function that (transitively)
		// has ordered side effects — the call order is map order.
		if fi := p.Prog.FuncOf(fn); fi != nil && fi.sum.Ordered != nil {
			reason = "the ordered side effects of " + fi.Name() + " (interprocedural)"
			chain = p.Prog.chain(fi.sum.Ordered, factOrdered)
		}
		return true
	})
	return reason, chain
}

// escapesRange reports whether the append target is declared outside the
// range statement, i.e. whether the built slice outlives the loop.
func (p *Pass) escapesRange(target ast.Expr, rs *ast.RangeStmt) bool {
	switch e := ast.Unparen(target).(type) {
	case *ast.Ident:
		obj := p.Info.ObjectOf(e)
		if obj == nil {
			return true // unresolved: assume the worst
		}
		return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
	default:
		// Selector, index, call results, ...: writes through state the loop
		// does not own.
		return true
	}
}

// sortedAfter reports whether target is passed to a sort call after the
// range statement within the same function — the collect-then-sort idiom.
func (p *Pass) sortedAfter(target ast.Expr, rs *ast.RangeStmt, fnBody *ast.BlockStmt) bool {
	id, ok := ast.Unparen(target).(*ast.Ident)
	if !ok || fnBody == nil {
		return false
	}
	obj := p.Info.ObjectOf(id)
	if obj == nil {
		return false
	}
	sorted := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		fn := calleeFunc(p.Info, call)
		if fn == nil || !isSortCall(fn) {
			return true
		}
		for _, arg := range call.Args {
			if aid, ok := ast.Unparen(arg).(*ast.Ident); ok && p.Info.ObjectOf(aid) == obj {
				sorted = true
			}
		}
		return true
	})
	return sorted
}
