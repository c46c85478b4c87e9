package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path  string // import path ("cosmo/internal/serving")
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	moduleRoot string
}

// relPath renders a file position relative to the module root so
// findings are stable regardless of where the tree is checked out.
func (p *Package) relPath(filename string) string {
	if rel, err := filepath.Rel(p.moduleRoot, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filename
}

// Loader parses and type-checks module packages using only the
// standard library. There is one type-check path: LoadAll runs it over
// the module in dependency waves, and LoadDir runs it for one more
// directory (a lint fixture under testdata) once LoadAll has loaded the
// module packages it may import. Imports inside the module resolve to
// already-loaded packages; everything else (the stdlib) resolves
// through go/importer's source importer. Test files are not loaded: the
// invariants guard production code, and tests legitimately use fixed
// ad-hoc seeds and wall clocks.
//
// LoadAll is safe to run with many workers (token.FileSet is
// internally locked, finished *types.Package values are immutable, and
// the two shared mutable structures — the package memo and the stdlib
// source importer — sit behind mutexes). Two concurrent LoadDir calls
// for the same directory both type-check it; callers who share a
// Loader serialize LoadDir to load each fixture once.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset  *token.FileSet
	std   types.Importer
	stdMu sync.Mutex          // go/importer's source importer memoizes without locking
	mu    sync.Mutex          // guards pkgs
	pkgs  map[string]*Package // memoized by absolute dir
}

// stdImport resolves a non-module import through the stdlib source
// importer, serialized: the importer memoizes into an unlocked map.
// Each stdlib package is type-checked once and then served from the
// memo, so the critical section is cold exactly once per package.
func (l *Loader) stdImport(path string) (*types.Package, error) {
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	return l.std.Import(path)
}

// NewLoader builds a loader for the module rooted at moduleRoot
// (a directory containing go.mod).
func NewLoader(moduleRoot string) (*Loader, error) {
	abs, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: abs,
		ModulePath: modPath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
	}, nil
}

// readModulePath extracts the module path from the first "module" line
// of a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			path := strings.TrimSpace(rest)
			if path != "" {
				return strings.Trim(path, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// LoadAll loads every package in the module in deterministic directory
// order, skipping testdata, hidden, and VCS directories, with parsing
// and type-checking fanned out across workers goroutines (<= 0 means
// GOMAXPROCS). The returned slice is identical for every worker count.
func (l *Loader) LoadAll(workers int) ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return l.loadAllParallel(dirs, workers)
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") &&
			fileMatchesBuild(filepath.Join(dir, e.Name())) {
			return true
		}
	}
	return false
}

// LoadDir parses and type-checks the package in dir (memoized) through
// the same parse and type-check steps as one LoadAll wave. Its
// module-internal imports must already be loaded by LoadAll.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if pkg := l.memoized(abs); pkg != nil {
		return pkg, nil
	}
	pd, err := l.parseDir(abs, nil)
	if err != nil {
		return nil, err
	}
	if err := l.typeCheckParsed(pd); err != nil {
		return nil, err
	}
	return l.memoized(abs), nil
}

// importPathFor maps an absolute directory under the module root to
// its import path.
func (l *Loader) importPathFor(abs string) string {
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}
