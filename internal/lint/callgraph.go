package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file builds the module-wide function index and static call graph the
// interprocedural rules run on. Every function or method declared in the
// analyzed package set gets a FuncInfo carrying the dataflow facts one AST
// walk can extract (seeds, call edges, parameter flows); summary.go then
// propagates those facts over the call graph to a fixpoint.

// FuncInfo is one declared function or method of the analyzed module.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	facts   fnFacts
	sum     Summary
	callers []*FuncInfo // reverse edges, deduped, discovery order

	// moLocals maps local variables holding map-iteration-ordered data to
	// their provenance; filled after the summary fixpoint converges.
	moLocals map[types.Object]*prov
}

// Name renders the function for diagnostics: pkgpath.Func or
// pkgpath.(Recv).Method.
func (fi *FuncInfo) Name() string {
	if recv := fi.Obj.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name() + "." + fi.Obj.Name()
		}
	}
	return fi.Obj.Name()
}

// seed is one taint source with its position and a human-readable note.
type seed struct {
	pos  token.Pos
	desc string
}

// callRec is one static call edge out of a function.
type callRec struct {
	pos    token.Pos
	callee *types.Func
}

// paramFlow records "parameter p is passed verbatim as argument arg of a
// call to callee", the edge parameter taint propagates along.
type paramFlow struct {
	param   int
	pos     token.Pos
	callee  *types.Func
	arg     int
	guarded bool // call site sits behind a nil guard on the parameter
}

// objSeed ties a taint seed to the local variable it contaminates.
type objSeed struct {
	obj  types.Object
	pos  token.Pos
	desc string
}

// assignFromCall records `x := g(...)` / `x = g(...)`: x inherits whatever
// ordering property g's return value carries.
type assignFromCall struct {
	obj    types.Object
	callee *types.Func
	pos    token.Pos
}

// fnFacts are the per-function dataflow facts extracted in one AST walk.
// Everything interprocedural is derived from these by the fixpoint in
// summary.go; the walk itself never looks outside the function.
type fnFacts struct {
	wall    []seed // reads the wall clock (allow-suppressed sites excluded)
	rand    []seed // draws from the global math/rand source
	ordered []seed // ordered side effects: schedules, emits, appends to
	// surviving state, feeds a fingerprint hasher
	floatAcc []seed // float accumulation into state the function does not own

	calls      []callRec
	paramSink  map[int][]seed // parameter reaches an ordered sink directly
	paramFlows []paramFlow
	paramEmit  map[int]seed // unguarded tracer emission with the parameter as receiver

	builders        []objSeed // local slices/strings built in map-iteration order
	assignsFromCall []assignFromCall
	sorted          map[types.Object]bool
	retObjs         []objSeed
	retCalls        []callRec
}

// Program is the module-wide analysis state: the function index, call
// graph, per-package allow sets and converged summaries.
type Program struct {
	Fset    *token.FileSet
	Info    *types.Info
	Pkgs    []*Package // packages diagnostics are reported for
	Context []*Package // superset of Pkgs contributing summaries

	funcs  map[*types.Func]*FuncInfo
	order  []*FuncInfo
	allows map[*Package]*allowSet
}

// BuildProgram indexes every function declared in context, extracts
// per-function facts and runs the summary fixpoint. pkgs is the subset
// diagnostics will be reported for.
func BuildProgram(fset *token.FileSet, info *types.Info, pkgs, context []*Package) *Program {
	prog := &Program{
		Fset:    fset,
		Info:    info,
		Pkgs:    pkgs,
		Context: context,
		funcs:   map[*types.Func]*FuncInfo{},
		allows:  map[*Package]*allowSet{},
	}
	for _, pkg := range context {
		prog.allows[pkg] = collectAllows(fset, pkg)
	}
	// Pass 1: index declarations so call edges can resolve forward refs.
	for _, pkg := range context {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg}
				prog.funcs[obj] = fi
				prog.order = append(prog.order, fi)
			}
		}
	}
	// Pass 2: facts + reverse edges.
	for _, fi := range prog.order {
		prog.collectFacts(fi)
		seen := map[*FuncInfo]bool{}
		for _, c := range fi.facts.calls {
			if callee := prog.funcs[c.callee]; callee != nil && !seen[callee] {
				seen[callee] = true
				callee.callers = append(callee.callers, fi)
			}
		}
	}
	prog.solve()
	return prog
}

// FuncOf resolves the FuncInfo for a declared module function, or nil for
// externals, interface methods and function values.
func (prog *Program) FuncOf(fn *types.Func) *FuncInfo {
	if fn == nil {
		return nil
	}
	return prog.funcs[fn]
}

// allowedAt reports (and records) whether rule is allow-suppressed at pos
// in pkg's allow set.
func (prog *Program) allowedAt(pkg *Package, pos token.Pos, rule string) bool {
	position := prog.Fset.Position(pos)
	return prog.allows[pkg].allowed(position.Filename, position.Line, rule)
}

// paramObjs returns the parameter (and named receiver) objects of a
// declaration, with the parameter tuple index for each plain parameter.
func paramObjs(info *types.Info, fd *ast.FuncDecl) (params map[types.Object]int, recvAndParams map[types.Object]bool) {
	params = map[types.Object]int{}
	recvAndParams = map[types.Object]bool{}
	add := func(fields *ast.FieldList, indexed bool) {
		if fields == nil {
			return
		}
		i := 0
		for _, field := range fields.List {
			if len(field.Names) == 0 {
				i++
				continue
			}
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					recvAndParams[obj] = true
					if indexed {
						params[obj] = i
					}
				}
				i++
			}
		}
	}
	add(fd.Recv, false)
	add(fd.Type.Params, true)
	return params, recvAndParams
}
