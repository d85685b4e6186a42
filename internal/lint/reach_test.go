package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Reasons shared by several keepUnreachable entries.
const (
	keepNodeFailure = "node-failure chain: models the ToR crash; the allocator-differential and route-cache tests drive it"
	keepCRC         = "RePaC GF(2) source-port solver; it stands alone and crc_test checks it against brute force"
	keepPooled      = "pooled-handle API: the checked-build misuse tests depend on it"
)

// keepUnreachable names the functions no program in the module reaches
// that stay anyway, each with the reason it stays. A name is
// package.Func or package.Recv.Method.
var keepUnreachable = map[string]string{
	"netsim.Sim.FailNode":            keepNodeFailure,
	"netsim.Sim.RecoverNode":         keepNodeFailure,
	"route.Router.NoteNodeFailed":    keepNodeFailure,
	"route.Router.NoteNodeRecovered": keepNodeFailure,
	"topo.Topology.SetNodeState":     keepNodeFailure,
	"hashing.CRC16.Sum":              keepCRC,
	"hashing.CRC16.HashTuple":        keepCRC,
	"hashing.CRC16.Select":           keepCRC,
	"hashing.CRC16.SportBasis":       keepCRC,
	"hashing.EvalSport":              keepCRC,
	"hashing.SportsForBucket":        keepCRC,
	"hashing.tupleBytes":             keepCRC,
	"sim.Event.Pin":                  keepPooled,
	"sim.Event.Canceled":             keepPooled,
	"sim.Event.At":                   keepPooled,
	"netsim.Flow.Pin":                keepPooled,
	"netsim.Flow.Done":               keepPooled,
	"telemetry.Registry.WriteJSON":   "produces the golden suite's metrics.json",
	"hpn.ScenarioRun.WriteArtifacts": "writes the golden suite's per-run artifact set",
	"netsim.referenceMaxMin":         "the max-min allocator oracle the allocator tests compare against",
	"main.inProcess":                 "perfbench's in-process Go benchmarks run their reps through it",
}

// TestNoUnreachableCode keeps dead code from regrowing: every function
// declared outside _test.go files must be reachable from some program in
// the module, or be listed in keepUnreachable with a reason. The roots
// are main and init in every package (cmd/, examples/ and perfbench/
// included), package-level initializers, every method that implements an
// interface the module's code uses, and every function an hpncheck-tagged
// file calls. Packages named *test (test-support packages) are exempt.
func TestNoUnreachableCode(t *testing.T) {
	ld := testLoader(t)
	pkgs, err := ld.LoadAll()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	r := newReach(ld.Info)
	for _, pkg := range pkgs {
		r.index(pkg)
	}
	r.rootIfaceMethods(pkgs)
	checked := map[string]bool{}
	for _, pkg := range pkgs {
		if err := hpncheckNames(pkg.Dir, checked); err != nil {
			t.Fatal(err)
		}
	}
	for fn := range r.decls {
		if checked[fn.Name()] {
			r.mark(fn)
		}
	}
	r.solve()

	// A kept function is a root too, so what only it calls is not reported;
	// a kept function some program reaches needs no entry.
	kept := map[string]bool{}
	for fn := range r.decls {
		if name := reachName(fn); keepUnreachable[name] != "" && !r.reached[fn] {
			kept[name] = true
			r.mark(fn)
		}
	}
	r.solve()

	var dead []string
	for fn, fi := range r.decls {
		if r.reached[fn] || strings.HasSuffix(fi.pkg.Name, "test") {
			continue
		}
		pos := ld.Fset.Position(fi.decl.Pos())
		rel, err := filepath.Rel(ld.Root, pos.Filename)
		if err != nil {
			rel = pos.Filename
		}
		dead = append(dead, fmt.Sprintf("%s:%d: %s is reached by no program", rel, pos.Line, reachName(fn)))
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Error(d)
	}
	var stale []string
	for name := range keepUnreachable {
		if !kept[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("keepUnreachable lists %s, which a program reaches or which no longer exists", name)
	}
}

// mutableGlobals names the functions besides init that may assign a
// package-level variable, each with the reason it may. A name is
// package.Func or package.Recv.Method.
var mutableGlobals = map[string]string{
	"hpn.register": "fills the experiment registry from each file's init",
}

// TestNoMutableGlobals keeps process-wide state from regrowing: outside
// package main, no function declared outside _test.go files assigns a
// package-level variable, or a field or an element of one, other than
// init and the functions mutableGlobals lists. What a run needs (its hub,
// its worker count) travels as arguments, so one run cannot leak into the
// next.
func TestNoMutableGlobals(t *testing.T) {
	ld := testLoader(t)
	pkgs, err := ld.LoadAll()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	var bad []string
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		if pkg.Name == "main" {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Recv == nil && fd.Name.Name == "init" {
					continue
				}
				fn, ok := ld.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				name := reachName(fn)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					var lhs []ast.Expr
					switch n := n.(type) {
					case *ast.AssignStmt:
						if n.Tok != token.DEFINE {
							lhs = n.Lhs
						}
					case *ast.IncDecStmt:
						lhs = []ast.Expr{n.X}
					case *ast.RangeStmt:
						if n.Tok == token.ASSIGN {
							lhs = []ast.Expr{n.Key, n.Value}
						}
					}
					for _, e := range lhs {
						v := assignedGlobal(ld.Info, e)
						if v == nil {
							continue
						}
						seen[name] = true
						if mutableGlobals[name] == "" {
							pos := ld.Fset.Position(e.Pos())
							rel, err := filepath.Rel(ld.Root, pos.Filename)
							if err != nil {
								rel = pos.Filename
							}
							bad = append(bad, fmt.Sprintf("%s:%d: %s assigns package-level variable %s.%s",
								rel, pos.Line, name, v.Pkg().Name(), v.Name()))
						}
					}
					return true
				})
			}
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
	for name := range mutableGlobals {
		if !seen[name] {
			t.Errorf("mutableGlobals lists %s, which assigns no package-level variable or no longer exists", name)
		}
	}
}

// assignedGlobal returns the package-level variable an assignment to e
// writes, directly or through a field, an element or a dereference of it,
// or nil.
func assignedGlobal(info *types.Info, e ast.Expr) *types.Var {
	for e != nil {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && !v.IsField() {
				return v // a qualified identifier: pkg.Var
			}
			e = x.X
		case *ast.Ident:
			if v, ok := info.Uses[x].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v
			}
			return nil
		default:
			return nil
		}
	}
	return nil
}

type reachDecl struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// reach is a name-resolved static call graph over the module: an edge
// runs from a function to every module function its body refers to,
// called or taken as a value.
type reach struct {
	info    *types.Info
	decls   map[*types.Func]reachDecl
	refs    map[*types.Func][]*types.Func
	reached map[*types.Func]bool
	work    []*types.Func
}

func newReach(info *types.Info) *reach {
	return &reach{
		info:    info,
		decls:   map[*types.Func]reachDecl{},
		refs:    map[*types.Func][]*types.Func{},
		reached: map[*types.Func]bool{},
	}
}

// funcsIn returns the module functions n refers to.
func (r *reach) funcsIn(n ast.Node) []*types.Func {
	var out []*types.Func
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := r.info.Uses[id].(*types.Func); ok {
				out = append(out, fn.Origin())
			}
		}
		return true
	})
	return out
}

// index records pkg's function declarations and their references, and
// roots main, init and everything package-level initializers refer to.
func (r *reach) index(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				r.work = append(r.work, r.funcsIn(decl)...)
				continue
			}
			fn, ok := r.info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			r.decls[fn] = reachDecl{pkg: pkg, decl: fd}
			if fd.Body != nil {
				r.refs[fn] = r.funcsIn(fd.Body)
			}
			if fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init") {
				r.mark(fn)
			}
		}
	}
}

// dynamicIfaceMethods are the methods the standard library finds by a
// dynamic interface check on a value of static type any, so no interface
// type carrying them need appear in the module's code. Any method of
// these names is a root.
var dynamicIfaceMethods = map[string]bool{
	"Error": true, "String": true, "GoString": true, "Format": true,
	"MarshalJSON": true, "MarshalText": true, "Unwrap": true,
}

// rootIfaceMethods roots every method a call through an interface can
// reach: for each interface type appearing in the type of some expression
// of pkgs, the methods that implement it on every module type that does.
func (r *reach) rootIfaceMethods(pkgs []*Package) {
	var ifaces []*types.Interface
	seen := map[types.Type]bool{}
	var walk func(types.Type)
	walk = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch t := typ.(type) {
		case *types.Named:
			walk(t.Underlying())
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		case *types.Interface:
			if t.NumMethods() > 0 {
				ifaces = append(ifaces, t)
			}
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	inModule := map[*types.Package]bool{}
	for _, pkg := range pkgs {
		inModule[pkg.Types] = true
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok {
					walk(r.info.TypeOf(e))
				}
				return true
			})
		}
	}
	for fn := range r.decls {
		if fn.Type().(*types.Signature).Recv() != nil && dynamicIfaceMethods[fn.Name()] {
			r.mark(fn)
		}
	}
	for _, obj := range r.info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() || !inModule[tn.Pkg()] {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		ptr := types.NewPointer(named)
		mset := types.NewMethodSet(ptr)
		for _, iface := range ifaces {
			if named.TypeParams().Len() == 0 && !types.Implements(ptr, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				if sel := mset.Lookup(iface.Method(i).Pkg(), iface.Method(i).Name()); sel != nil {
					r.mark(sel.Obj().(*types.Func).Origin())
				}
			}
		}
	}
}

func (r *reach) mark(fn *types.Func) { r.work = append(r.work, fn) }

func (r *reach) solve() {
	for len(r.work) > 0 {
		fn := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		if r.reached[fn] {
			continue
		}
		r.reached[fn] = true
		r.work = append(r.work, r.refs[fn]...)
	}
}

// hpncheckNames adds to names what the non-test files of dir that only
// the hpncheck build tag compiles call or select. The default build skips
// those files, so the loader never type-checks them, and a function they
// use is matched by name.
func hpncheckNames(dir string, names map[string]bool) error {
	tagged := build.Default
	tagged.BuildTags = append([]string{"hpncheck"}, tagged.BuildTags...)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, _ := build.Default.MatchFile(dir, name); ok {
			continue
		}
		if ok, err := tagged.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				names[n.Sel.Name] = true
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok {
					names[id.Name] = true
				}
			}
			return true
		})
	}
	return nil
}

// reachName renders fn as package.Func or package.Recv.Method.
func reachName(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	return fn.Pkg().Name() + "." + name
}
