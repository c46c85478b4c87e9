package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
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

// listedPackage is the part of one `go list -json` record Load reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string // compiled export data in the build cache
	GoFiles    []string
	DepOnly    bool // imported by a named package, not named itself
	Error      *struct{ Err string }
	Module     *struct{ Dir string }
}

// Load parses and type-checks the packages the patterns name in dir (no
// pattern means ./...). One `go list -export -deps` run resolves the
// patterns, picks each package's files as go vet would (build
// constraints, GOOS, GOARCH, GOFLAGS tags) and compiles every import
// into export data, so only the named packages are type-checked from
// source. Test files are not loaded: the invariants guard production
// code, and tests legitimately use fixed ad-hoc seeds and wall clocks.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,Error,Module"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	exports := map[string]string{}
	var named []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
		}
		exports[lp.ImportPath] = lp.Export
		if !lp.DepOnly {
			named = append(named, lp)
		}
	}
	if len(named) == 0 {
		return nil, fmt.Errorf("%s matches no packages", strings.Join(patterns, " "))
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	pkgs := make([]*Package, 0, len(named))
	for _, lp := range named {
		files := make([]*ast.File, 0, len(lp.GoFiles))
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
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
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", lp.ImportPath, err)
		}
		pkg := &Package{Path: lp.ImportPath, Dir: lp.Dir, Fset: fset, Files: files, Types: tpkg, Info: info}
		if lp.Module != nil {
			pkg.moduleRoot = lp.Module.Dir
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
