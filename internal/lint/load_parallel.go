package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cosmo/internal/parallel"
)

// Parallel module loading. Parsing is embarrassingly parallel (the
// shared token.FileSet locks internally), but type-checking a package
// requires its module-internal imports to be checked first. Instead of
// per-package locking — which deadlocks the worker pool the moment a
// dependency chain is longer than the pool, and makes cycle detection
// racy — the driver runs topological waves: parse everything, read the
// intra-module dependency graph out of the file imports, and
// repeatedly type-check the set of packages whose dependencies are all
// done. An empty ready-set with work remaining is an import cycle,
// detected deterministically with the offending directories named.

// parsedDir is one package directory after the parse phase.
type parsedDir struct {
	dir   string // absolute
	path  string // import path
	files []*ast.File
	deps  []string // absolute dirs of module-internal imports
}

// loadAllParallel loads the given sorted package directories using
// workers goroutines and returns packages in the same order.
func (l *Loader) loadAllParallel(dirs []string, workers int) ([]*Package, error) {
	type parseResult struct {
		pd  *parsedDir
		err error
	}
	dirSet := map[string]bool{}
	for _, dir := range dirs {
		dirSet[dir] = true
	}
	parsed := parallel.Map(workers, dirs, func(_ int, dir string) parseResult {
		pd, err := l.parseDir(dir, dirSet)
		return parseResult{pd: pd, err: err}
	})
	byDir := map[string]*parsedDir{}
	for _, r := range parsed {
		if r.err != nil {
			return nil, r.err // first in directory order: deterministic
		}
		byDir[r.pd.dir] = r.pd
	}

	// Topological waves over the intra-module dependency graph.
	done := map[string]bool{}
	remaining := append([]string(nil), dirs...)
	for len(remaining) > 0 {
		var ready, blocked []string
		for _, dir := range remaining {
			ok := true
			for _, dep := range byDir[dir].deps {
				if !done[dep] {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, dir)
			} else {
				blocked = append(blocked, dir)
			}
		}
		if len(ready) == 0 {
			return nil, fmt.Errorf("import cycle among module packages: %s", strings.Join(blocked, ", "))
		}
		type checkResult struct {
			err error
		}
		results := parallel.Map(workers, ready, func(_ int, dir string) checkResult {
			return checkResult{err: l.typeCheckParsed(byDir[dir])}
		})
		for _, r := range results {
			if r.err != nil {
				return nil, r.err
			}
		}
		for _, dir := range ready {
			done[dir] = true
		}
		remaining = blocked
	}

	pkgs := make([]*Package, 0, len(dirs))
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, dir := range dirs {
		pkgs = append(pkgs, l.pkgs[dir])
	}
	return pkgs, nil
}

// parseDir parses the package in dir and extracts its module-internal
// dependency edges (restricted to directories in dirSet, so a stray
// import of a non-existent module path surfaces as a type-check error,
// not a scheduling error).
func (l *Loader) parseDir(dir string, dirSet map[string]bool) (*parsedDir, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	pd := &parsedDir{dir: abs, path: l.importPathFor(abs)}
	depSet := map[string]bool{}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		if !fileMatchesBuild(filepath.Join(abs, e.Name())) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(abs, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pd.files = append(pd.files, f)
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path != l.ModulePath && !strings.HasPrefix(path, l.ModulePath+"/") {
				continue
			}
			depDir := filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath)))
			if dirSet[depDir] {
				depSet[depDir] = true
			}
		}
	}
	if len(pd.files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", abs)
	}
	for dep := range depSet {
		pd.deps = append(pd.deps, dep)
	}
	sort.Strings(pd.deps)
	return pd, nil
}

// typeCheckParsed type-checks one parsed package whose module-internal
// dependencies are already in the memo, and stores the result.
func (l *Loader) typeCheckParsed(pd *parsedDir) error {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: &waveImporter{l: l}}
	tpkg, err := conf.Check(pd.path, l.fset, pd.files, info)
	if err != nil {
		return fmt.Errorf("type-check %s: %w", pd.path, err)
	}
	l.storePkg(&Package{
		Path:       pd.path,
		Dir:        pd.dir,
		Fset:       l.fset,
		Files:      pd.files,
		Types:      tpkg,
		Info:       info,
		moduleRoot: l.ModuleRoot,
	})
	return nil
}

// storePkg and memoized are the two sides of the parallel package memo.
func (l *Loader) storePkg(pkg *Package) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pkgs[pkg.Dir] = pkg
}

func (l *Loader) memoized(dir string) *Package {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pkgs[dir]
}

// waveImporter resolves imports during a type-check. Module-internal
// imports must already be memoized: the wave scheduler runs
// dependencies in an earlier wave, and LoadDir expects LoadAll to have
// run. The stdlib goes through the serialized source importer.
type waveImporter struct {
	l *Loader
}

func (w *waveImporter) Import(path string) (*types.Package, error) {
	l := w.l
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath)))
		pkg := l.memoized(dir)
		if pkg == nil {
			return nil, fmt.Errorf("module package %s is not loaded yet (LoadAll loads module packages before anything imports them)", path)
		}
		return pkg.Types, nil
	}
	return l.stdImport(path)
}
