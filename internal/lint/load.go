package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
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
// standard library. Each package is loaded once, on first use:
// LoadDir type-checks a directory, and an import of a module package
// loads that package's directory through LoadDir first. Everything
// else (the stdlib) resolves through go/importer's source importer.
// Files are selected by build.Default, the build context the source
// importer uses too, so module and stdlib see the same GOOS/GOARCH and
// tags. Test files are not loaded: the invariants guard production
// code, and tests legitimately use fixed ad-hoc seeds and wall clocks.
//
// A Loader is not safe for concurrent use.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package // memoized by absolute dir
	loading []string            // dirs being type-checked, outermost first
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

// LoadAll loads every package in the module in sorted directory order,
// skipping testdata, hidden, and VCS directories.
func (l *Loader) LoadAll() ([]*Package, error) {
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
		names, err := goFiles(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goFiles lists the non-test .go files in dir that build.Default
// builds, in directory order.
func goFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, name)
		}
	}
	return names, nil
}

// LoadDir parses and type-checks the package in dir, loading the
// module packages it imports first. Results are memoized by directory;
// an import that leads back to a package still being loaded is an
// import cycle and fails with the cycle's import paths.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if pkg := l.pkgs[abs]; pkg != nil {
		return pkg, nil
	}
	path := l.importPathFor(abs)
	if i := slices.Index(l.loading, abs); i >= 0 {
		cycle := make([]string, 0, len(l.loading)-i+1)
		for _, d := range l.loading[i:] {
			cycle = append(cycle, l.importPathFor(d))
		}
		return nil, fmt.Errorf("import cycle: %s", strings.Join(append(cycle, path), " -> "))
	}
	l.loading = append(l.loading, abs)
	defer func() { l.loading = l.loading[:len(l.loading)-1] }()

	names, err := goFiles(abs)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", abs)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	pkg := &Package{
		Path:       path,
		Dir:        abs,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		moduleRoot: l.ModuleRoot,
	}
	l.pkgs[abs] = pkg
	return pkg, nil
}

// importPkg resolves one import during a type-check: module packages
// through LoadDir, everything else through the stdlib source importer.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path != l.ModulePath && !strings.HasPrefix(path, l.ModulePath+"/") {
		return l.std.Import(path)
	}
	pkg, err := l.LoadDir(filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath))))
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// importPathFor maps an absolute directory under the module root to
// its import path.
func (l *Loader) importPathFor(abs string) string {
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}
