package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file extracts per-function dataflow facts (the seeds of the
// interprocedural summaries) and provides the shared classification
// helpers: what counts as an ordered sink, what counts as external state,
// what a local counter looks like, and how a converged taint chain renders
// into diagnostic ChainFrames.

// collectFacts walks one function body once and fills fi.facts. Allow
// directives at seed sites stop the taint at the source: a justified
// `//hpnlint:allow wallclock` on a time.Now line keeps the function's
// summary clean so callers are not re-flagged for a deliberate exception.
func (prog *Program) collectFacts(fi *FuncInfo) {
	info := prog.Info
	fc := &fi.facts
	fc.paramSink = map[int][]seed{}
	fc.paramEmit = map[int]seed{}
	fc.sorted = map[types.Object]bool{}

	params, _ := paramObjs(info, fi.Decl)
	counters := localCounters(info, fi.Decl)

	inspectWithStack(fi.Decl, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			fn, ok := info.Uses[n.Sel].(*types.Func)
			if !ok {
				return true
			}
			switch funcPkgPath(fn) {
			case "time":
				if wallclockFuncs[fn.Name()] && !prog.allowedAt(fi.Pkg, n.Pos(), "wallclock") {
					fc.wall = append(fc.wall, seed{n.Pos(), "time." + fn.Name() + " reads the wall clock here"})
				}
			case "math/rand", "math/rand/v2":
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil &&
					!prog.allowedAt(fi.Pkg, n.Pos(), "globalrand") {
					fc.rand = append(fc.rand, seed{n.Pos(), "rand." + fn.Name() + " draws from the global source here"})
				}
			}
		case *ast.CallExpr:
			prog.collectCallFacts(fi, n, stack, params)
		case *ast.AssignStmt:
			prog.collectAssignFacts(fi, n, stack, counters)
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				switch e := ast.Unparen(res).(type) {
				case *ast.Ident:
					if obj := info.ObjectOf(e); obj != nil {
						fc.retObjs = append(fc.retObjs, objSeed{obj, e.Pos(), ""})
					}
				case *ast.CallExpr:
					if callee := calleeFunc(info, e); callee != nil {
						fc.retCalls = append(fc.retCalls, callRec{e.Pos(), callee})
					}
				}
			}
		}
		return true
	})
}

// collectCallFacts classifies one call expression: call-graph edge, ordered
// sink, parameter flow, parameter-receiver emission, builder append.
func (prog *Program) collectCallFacts(fi *FuncInfo, call *ast.CallExpr, stack []ast.Node, params map[types.Object]int) {
	info := prog.Info
	fc := &fi.facts

	// append: builder inside a map range, or an append onto state the
	// function does not own (= an ordered artifact under construction).
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" && len(call.Args) > 0 {
				prog.collectAppendFacts(fi, call, stack, params)
			}
			return
		}
	}

	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	fc.calls = append(fc.calls, callRec{call.Pos(), fn})

	// Ordered sinks by callee identity.
	if desc := prog.orderedSinkDesc(fi.Pkg, fn); desc != "" {
		if !prog.allowedAt(fi.Pkg, call.Pos(), "maporder") {
			fc.ordered = append(fc.ordered, seed{call.Pos(), desc + " here"})
			// Any parameter feeding a sink argument reaches ordered output.
			for _, arg := range call.Args {
				for _, pe := range sortedParams(params) {
					if exprUsesObj(info, arg, pe.obj) {
						fc.paramSink[pe.idx] = append(fc.paramSink[pe.idx],
							seed{call.Pos(), "parameter " + pe.obj.Name() + " " + desc + " here"})
					}
				}
			}
		}
	}

	// Unguarded tracer emission with a parameter as receiver: the cost
	// contract escapes to the callers (tracenil interprocedural).
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isTracerEmit(fi.Pkg, fn) {
		if recvID, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if idx, isParam := params[info.ObjectOf(recvID)]; isParam &&
				!guardedNotNil(stack, call, recvID.Name) && !prog.allowedAt(fi.Pkg, call.Pos(), "tracenil") {
				if _, dup := fc.paramEmit[idx]; !dup {
					fc.paramEmit[idx] = seed{call.Pos(), "emits on parameter " + recvID.Name + " without a nil guard here"}
				}
			}
		}
	}

	// sort calls launder ordering for their slice arguments.
	if isSortCall(fn) {
		for _, arg := range call.Args {
			if aid, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if obj := info.ObjectOf(aid); obj != nil {
					fc.sorted[obj] = true
				}
			}
		}
	}

	// Parameter flows: a parameter passed verbatim as an argument.
	sig, _ := fn.Type().(*types.Signature)
	for ai, arg := range call.Args {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok {
			continue
		}
		obj := info.ObjectOf(id)
		idx, isParam := params[obj]
		if !isParam || sig == nil {
			continue
		}
		target := ai
		if sig.Variadic() && target >= sig.Params().Len()-1 {
			target = sig.Params().Len() - 1
		}
		if target >= sig.Params().Len() {
			continue
		}
		fc.paramFlows = append(fc.paramFlows, paramFlow{
			param:   idx,
			pos:     call.Pos(),
			callee:  fn,
			arg:     target,
			guarded: guardedNotNil(stack, call, id.Name),
		})
	}

	// Local variables assigned straight from a call inherit the callee's
	// return-ordering property.
	if len(stack) > 0 {
		if as, ok := stack[len(stack)-1].(*ast.AssignStmt); ok &&
			len(as.Rhs) == 1 && ast.Unparen(as.Rhs[0]) == call {
			for _, lhs := range as.Lhs {
				if lid, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if obj := info.ObjectOf(lid); obj != nil {
						fc.assignsFromCall = append(fc.assignsFromCall, assignFromCall{obj, fn, call.Pos()})
					}
				}
			}
		}
	}
}

// collectAppendFacts handles one append(...) call: map-range builders and
// appends onto surviving external state.
func (prog *Program) collectAppendFacts(fi *FuncInfo, call *ast.CallExpr, stack []ast.Node, params map[types.Object]int) {
	info := prog.Info
	fc := &fi.facts
	target := ast.Unparen(call.Args[0])

	if isExternalTarget(info, target) {
		if !prog.allowedAt(fi.Pkg, call.Pos(), "maporder") {
			desc := "appends to surviving state " + types.ExprString(target)
			fc.ordered = append(fc.ordered, seed{call.Pos(), desc + " here"})
			for _, arg := range call.Args[1:] {
				for _, pe := range sortedParams(params) {
					if exprUsesObj(info, arg, pe.obj) {
						fc.paramSink[pe.idx] = append(fc.paramSink[pe.idx],
							seed{call.Pos(), "parameter " + pe.obj.Name() + " is appended to surviving state " + types.ExprString(target) + " here"})
					}
				}
			}
		}
		return
	}
	// Local target built inside a map range: a map-ordered builder.
	if id, ok := target.(*ast.Ident); ok {
		if rs := enclosingMapRange(prog.Info, stack); rs != nil {
			if obj := info.ObjectOf(id); obj != nil {
				fc.builders = append(fc.builders, objSeed{obj, call.Pos(),
					"built by appending inside `range " + types.ExprString(rs.X) + "` (map iteration order) here"})
			}
		}
	}
}

// collectAssignFacts handles one assignment: float accumulation into
// external state, and counter-indexed / string-concat map-range builders.
func (prog *Program) collectAssignFacts(fi *FuncInfo, as *ast.AssignStmt, stack []ast.Node, counters map[types.Object]token.Pos) {
	info := prog.Info
	fc := &fi.facts
	if len(as.Lhs) != 1 {
		return
	}
	lhs := ast.Unparen(as.Lhs[0])

	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if isFloat(info.TypeOf(lhs)) && isExternalTarget(info, lhs) &&
			!prog.allowedAt(fi.Pkg, as.Pos(), "floatacc") {
			fc.floatAcc = append(fc.floatAcc, seed{as.Pos(),
				"accumulates float state " + types.ExprString(lhs) + " (" + as.Tok.String() + ") here"})
		}
		// String concatenation inside a map range builds a map-ordered
		// string.
		if as.Tok == token.ADD_ASSIGN && isString(info.TypeOf(lhs)) {
			if id, ok := lhs.(*ast.Ident); ok && !isExternalTarget(info, lhs) {
				if rs := enclosingMapRange(info, stack); rs != nil {
					if obj := info.ObjectOf(id); obj != nil {
						fc.builders = append(fc.builders, objSeed{obj, as.Pos(),
							"built by string concatenation inside `range " + types.ExprString(rs.X) + "` (map iteration order) here"})
					}
				}
			}
		}
	case token.ASSIGN:
		// Counter-indexed slice fill inside a map range: out[i] = v; i++
		// builds positional map order without any append for the old
		// intraprocedural rule to see.
		ix, ok := lhs.(*ast.IndexExpr)
		if !ok {
			return
		}
		base, ok := ast.Unparen(ix.X).(*ast.Ident)
		if !ok || isExternalTarget(info, ix.X) {
			return
		}
		idxID, ok := ast.Unparen(ix.Index).(*ast.Ident)
		if !ok {
			return
		}
		if _, isCounter := counters[info.ObjectOf(idxID)]; !isCounter {
			return
		}
		if rs := enclosingMapRange(info, stack); rs != nil {
			if obj := info.ObjectOf(base); obj != nil {
				fc.builders = append(fc.builders, objSeed{obj, as.Pos(),
					"built by counter-indexed assignment inside `range " + types.ExprString(rs.X) + "` (map iteration order) here"})
			}
		}
	}
}

// orderedSinkDesc classifies a callee as an ordered sink: simulator event
// scheduling, telemetry emission (for packages outside telemetry) or a
// fingerprint hasher. Returns "" for everything else.
func (prog *Program) orderedSinkDesc(pkg *Package, fn *types.Func) string {
	switch funcPkgPath(fn) {
	case simPath:
		if simSchedulingFuncs[fn.Name()] {
			return "reaches simulator event order (sim." + fn.Name() + ")"
		}
	case telemetryPath:
		if pkg.ImportPath != telemetryPath {
			return "reaches telemetry emission order (" + fn.Name() + ")"
		}
	}
	if isHasherMixMethod(fn) {
		return "feeds a fingerprint hasher (Hasher." + fn.Name() + ")"
	}
	return ""
}

// isHasherMixMethod reports whether fn is a Mix* method on a module type
// named Hasher — the fingerprint accumulators whose input order is part of
// the artifact contract.
func isHasherMixMethod(fn *types.Func) bool {
	if !strings.HasPrefix(fn.Name(), "Mix") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Hasher"
}

// isSortCall reports whether fn is a sort.* or slices.Sort* entry point.
func isSortCall(fn *types.Func) bool {
	switch funcPkgPath(fn) {
	case "sort":
		return true
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}

// isExternalTarget reports whether an assignable expression denotes state
// the enclosing function does not own: a field, an element of something
// reached through a selector, a pointer dereference, or a package-level
// variable. Appending to or accumulating into such state survives the
// function, so its order matters.
func isExternalTarget(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if obj == nil {
			return true // unresolved: assume the worst
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return true
		}
		// Package-level variables are external; locals (and parameters)
		// are owned by the function.
		return v.Parent() != nil && v.Parent().Parent() == types.Universe
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return isExternalTarget(info, e.X)
	case *ast.StarExpr:
		return true
	case *ast.CallExpr:
		// append(make([]T, ...), ...) and append([]T(nil), src...) build
		// fresh backing arrays the function owns; other call results may
		// alias external state.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
				return false
			}
		}
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			if arg, ok := ast.Unparen(e.Args[0]).(*ast.Ident); ok && arg.Name == "nil" {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// isString reports whether t is (or is based on) a string type.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// enclosingMapRange returns the innermost enclosing RangeStmt over a map
// whose body contains the current node, or nil.
func enclosingMapRange(info *types.Info, stack []ast.Node) *ast.RangeStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		rs, ok := stack[i].(*ast.RangeStmt)
		if !ok {
			continue
		}
		if t := info.TypeOf(rs.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				return rs
			}
		}
	}
	return nil
}

// paramEntry pairs a parameter object with its index for deterministic
// iteration — ranging the params map directly would leak map order into
// seed (and therefore diagnostic) order, which the maporder rule itself
// forbids.
type paramEntry struct {
	obj types.Object
	idx int
}

// sortedParams returns the parameter set ordered by parameter index.
func sortedParams(params map[types.Object]int) []paramEntry {
	out := make([]paramEntry, 0, len(params))
	for obj, idx := range params {
		out = append(out, paramEntry{obj, idx})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	return out
}

// exprUsesObj reports whether e references obj anywhere.
func exprUsesObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// localCounters finds function-local integer counters: variables declared
// from a literal (or zero value) and stepped with ++ or += <literal>.
// Counter-stamped artifact records are the seqsource rule's subject, and
// counter-indexed map-range fills are map-ordered builders.
func localCounters(info *types.Info, fd *ast.FuncDecl) map[types.Object]token.Pos {
	_, paramSet := paramObjs(info, fd)
	literalInit := map[types.Object]bool{}
	stepped := map[types.Object]token.Pos{}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IncDecStmt:
			if n.Tok != token.INC {
				return true
			}
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil && !paramSet[obj] {
					if _, seen := stepped[obj]; !seen {
						stepped[obj] = n.Pos()
					}
				}
			}
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN:
				if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
					if _, isLit := ast.Unparen(n.Rhs[0]).(*ast.BasicLit); isLit {
						if id, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident); ok {
							if obj := info.ObjectOf(id); obj != nil && !paramSet[obj] {
								if _, seen := stepped[obj]; !seen {
									stepped[obj] = n.Pos()
								}
							}
						}
					}
				}
			case token.DEFINE:
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					obj := info.Defs[id]
					if obj == nil || i >= len(n.Rhs) {
						continue
					}
					if _, isLit := ast.Unparen(n.Rhs[i]).(*ast.BasicLit); isLit {
						literalInit[obj] = true
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				obj := info.Defs[name]
				if obj == nil {
					continue
				}
				if len(n.Values) == 0 {
					literalInit[obj] = true // zero value
				} else if i < len(n.Values) {
					if _, isLit := ast.Unparen(n.Values[i]).(*ast.BasicLit); isLit {
						literalInit[obj] = true
					}
				}
			}
		}
		return true
	})
	out := map[types.Object]token.Pos{}
	for obj, pos := range stepped {
		if literalInit[obj] {
			// Only variables local to this function body count; package
			// state and cursors seeded from engine calls are exempt.
			if v, ok := obj.(*types.Var); ok && v.Pos() >= fd.Pos() && v.Pos() <= fd.End() {
				out[obj] = pos
			}
		}
	}
	return out
}
