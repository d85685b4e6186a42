package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Name       string
	Files      []*ast.File
	Types      *types.Package
	// TypeErrors collects soft type-checking errors. A package that builds
	// under `go build` should have none; anything here means the loader
	// lacked information and rule results for the package may be partial.
	TypeErrors []error
}

// Loader parses and type-checks packages of a single module using only the
// standard library: module-internal imports resolve against the module
// directory tree, everything else (the standard library) resolves through
// go/importer's source importer.
type Loader struct {
	Fset   *token.FileSet
	Module string // module path from go.mod, e.g. "hpn"
	Root   string // absolute module root directory
	Info   *types.Info

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader for the module rooted at root.
func NewLoader(root, module string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:   fset,
		Module: module,
		Root:   root,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		},
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
}

// FindModuleRoot walks upward from dir to the enclosing go.mod and returns
// the module root directory and module path.
func FindModuleRoot(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadAll walks the module tree and loads every package outside testdata,
// hidden and vendor directories, in deterministic (lexical) order.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.Root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A directory's files and its subdirectories interleave in the walk,
	// so one directory can be listed more than once.
	sort.Strings(dirs)
	dirs = slices.Compact(dirs)
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir, l.importPathFor(dir))
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// importPathFor maps a directory inside the module to its import path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || rel == "." {
		return l.Module
	}
	return l.Module + "/" + filepath.ToSlash(rel)
}

// LoadDir parses and type-checks the single package in dir, registering it
// under importPath. Results are memoized per import path.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", importPath, err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		// Lint what a default `go build` compiles: a file excluded by its
		// build constraints (such as the hpncheck variants) is skipped.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		} else if !ok {
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	sort.Strings(names)

	pkg := &Package{ImportPath: importPath, Dir: dir}
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	pkg.Name = pkg.Files[0].Name.Name

	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	// The returned first-error is redundant with TypeErrors; type-checking
	// is best-effort so partially broken trees still get linted.
	pkg.Types, _ = conf.Check(importPath, l.Fset, pkg.Files, l.Info)
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// Import implements types.Importer: module-internal paths load from the
// module tree, "unsafe" maps to types.Unsafe, and everything else falls
// through to the standard library's source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
		pkg, err := l.LoadDir(filepath.Join(l.Root, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
