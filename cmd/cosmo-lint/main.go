// Command cosmo-lint runs the project's static analyzer over the
// module: determinism (seeded-rand, wallclock), lock and atomic
// hygiene (mutex-hygiene, atomic-hygiene), bounded serving memory
// (unbounded-append), error discipline (dropped-error,
// sentinel-compare), the serving-path context contract
// (ctx-propagation), overflow safety (unchecked-narrowing), and
// hot-path allocation certification (alloc-free). A //cosmo:lint-ignore
// directive that names no registered check is itself a finding. See
// internal/lint for the checks and DESIGN.md for the invariants they
// encode.
//
// The packages named on the command line are parsed and type-checked,
// each once, after the module packages they import; only the named
// ones are linted. Findings are printed sorted by file, line, column
// and check.
//
// Usage:
//
//	go run ./cmd/cosmo-lint ./...
//	go run ./cmd/cosmo-lint -json ./internal/serving
//	go run ./cmd/cosmo-lint ./internal/... ./cmd/cosmo-serve
//
// Exit status: 0 clean, 1 findings (every check blocks), 2 load or
// usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cosmo/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	chdir := flag.String("C", ".", "directory inside the module to lint from")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cosmo-lint [-json] [-C dir] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Packages are ./... (the whole module, the default), a directory,\nor a dir/... prefix. Checks:\n")
		for _, c := range lint.AllChecks() {
			fmt.Fprintf(os.Stderr, "  %-19s %s\n", c.Name, c.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	pkgs, err := load(*chdir, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "cosmo-lint:", err)
		return 2
	}
	findings := lint.Run(pkgs, lint.DefaultConfig())
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "cosmo-lint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "cosmo-lint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

// load type-checks the packages the patterns name, resolved against
// chdir, in resolve's order.
func load(chdir string, patterns []string) ([]*lint.Package, error) {
	root, err := findModuleRoot(chdir)
	if err != nil {
		return nil, err
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		return nil, err
	}
	dirs, err := resolve(loader, chdir, patterns)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*lint.Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// findModuleRoot walks up from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}

// resolve maps the patterns, relative to chdir, to package directories
// without loading any: "./..." (or no pattern) is every module
// package, "dir/..." the module packages under dir, and a plain
// directory that directory, even outside the module walk (a testdata
// fixture package). Each directory is listed once, in pattern order.
func resolve(loader *lint.Loader, chdir string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	base, err := filepath.Abs(chdir)
	if err != nil {
		return nil, err
	}
	var moduleDirs []string
	var out []string
	seen := map[string]bool{}
	for _, pat := range patterns {
		var dirs []string
		dir, subtree := strings.CutSuffix(pat, "/...")
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(base, dir)
		}
		if subtree {
			if moduleDirs == nil {
				if moduleDirs, err = loader.ModuleDirs(); err != nil {
					return nil, err
				}
			}
			for _, d := range moduleDirs {
				if pat == "./..." || d == dir || strings.HasPrefix(d, dir+string(filepath.Separator)) {
					dirs = append(dirs, d)
				}
			}
		} else if names, err := lint.GoFiles(dir); err != nil {
			return nil, fmt.Errorf("pattern %q matches no packages (module root %s): %v", pat, loader.ModuleRoot, err)
		} else if len(names) > 0 {
			dirs = []string{dir}
		}
		if len(dirs) == 0 {
			return nil, fmt.Errorf("pattern %q matches no packages (module root %s)", pat, loader.ModuleRoot)
		}
		for _, d := range dirs {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	return out, nil
}
