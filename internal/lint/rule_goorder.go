package lint

import (
	"go/ast"
	"go/types"
)

// goorderRule enforces the parallel exact-merge discipline of sim.Sharded's
// per-domain outboxes: goroutine results must land in index-addressed slots
// (or be sorted before use), never merged by whichever goroutine got there
// first.
// Two shapes break that discipline and are flagged:
//
//   - shared-slice append: a go-launched function literal appending to a
//     slice declared outside it. Even under a mutex the element order is
//     scheduling order, which differs run to run.
//   - channel-receive merge: a loop receiving results from a channel and
//     appending them to a surviving slice without sorting afterwards. The
//     receive order is send-completion order, i.e. scheduling order.
//
// Index-addressed writes (results[i] = ...) and collect-then-sort merges
// are the blessed patterns and stay clean.
type goorderRule struct{}

func (goorderRule) Name() string { return "goorder" }
func (goorderRule) Doc() string {
	return "goroutine results must merge index-addressed or sorted, not by channel-receive order or shared-slice append"
}

func (goorderRule) Check(p *Pass) {
	for _, f := range p.Pkg.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					p.checkGoroutineAppends(n, lit)
				}
			case *ast.RangeStmt:
				if t := p.Info.TypeOf(n.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						p.checkReceiveMerge(n, n.Body, enclosingFuncBody(stack))
					}
				}
			case *ast.ForStmt:
				if containsChanReceive(p.Info, n.Body) {
					p.checkReceiveMerge(n, n.Body, enclosingFuncBody(stack))
				}
			}
			return true
		})
	}
}

// checkGoroutineAppends flags appends inside a go-launched function
// literal whose target is declared outside the literal — the shared-slice
// merge whose element order is goroutine scheduling order.
func (p *Pass) checkGoroutineAppends(gs *ast.GoStmt, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if b, ok := p.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" || len(call.Args) == 0 {
			return true
		}
		target := ast.Unparen(call.Args[0])
		if !escapesFuncLit(p.Info, target, lit) {
			return true
		}
		p.Reportf(gs.Pos(), "goorder",
			"goroutine appends to shared slice %s; element order is goroutine scheduling order — write to index-addressed slots (results[i] = ...) or merge sorted after Wait",
			types.ExprString(target))
		return true
	})
}

// checkReceiveMerge flags appends of channel-received results to surviving
// slices inside a receive loop, unless the target is sorted afterwards.
func (p *Pass) checkReceiveMerge(loop ast.Stmt, body *ast.BlockStmt, fnBody *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if b, ok := p.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" || len(call.Args) == 0 {
			return true
		}
		target := ast.Unparen(call.Args[0])
		if !stmtEscapes(p.Info, target, loop) || sortedAfterStmt(p, target, loop, fnBody) {
			return true
		}
		p.Reportf(loop.Pos(), "goorder",
			"results merged into %s by channel-receive order; receive order is goroutine scheduling order — carry an index and write results[i], or sort after the loop",
			types.ExprString(target))
		return false // one finding per loop is enough
	})
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

// escapesFuncLit reports whether target denotes state declared outside the
// function literal (or external state altogether).
func escapesFuncLit(info *types.Info, target ast.Expr, lit *ast.FuncLit) bool {
	id, ok := ast.Unparen(target).(*ast.Ident)
	if !ok {
		return true // selector/index/deref: shared by construction
	}
	obj := info.ObjectOf(id)
	if obj == nil {
		return true
	}
	return obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
}

// stmtEscapes reports whether target is declared outside stmt.
func stmtEscapes(info *types.Info, target ast.Expr, stmt ast.Stmt) bool {
	id, ok := ast.Unparen(target).(*ast.Ident)
	if !ok {
		return true
	}
	obj := info.ObjectOf(id)
	if obj == nil {
		return true
	}
	return obj.Pos() < stmt.Pos() || obj.Pos() > stmt.End()
}

// sortedAfterStmt reports whether target is passed to a sort call after
// stmt within the same function body.
func sortedAfterStmt(p *Pass, target ast.Expr, stmt ast.Stmt, fnBody *ast.BlockStmt) bool {
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
		if !ok || call.Pos() < stmt.End() {
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
