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
// Each package is parsed and type-checked once, on first import, and
// findings are printed sorted by file, line, column and check.
//
// Usage:
//
//	go run ./cmd/cosmo-lint ./...
//	go run ./cmd/cosmo-lint -json ./internal/serving
//	go run ./cmd/cosmo-lint -checks seeded-rand,wallclock ./...
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
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	chdir := flag.String("C", ".", "directory inside the module to lint from")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cosmo-lint [-json] [-checks c1,c2] [-C dir] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Packages are ./... (the whole module, the default), a directory,\nor a dir/... prefix. Checks:\n")
		for _, c := range lint.AllChecks() {
			fmt.Fprintf(os.Stderr, "  %-19s %s\n", c.Name, c.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	root, err := findModuleRoot(*chdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cosmo-lint:", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cosmo-lint:", err)
		return 2
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cosmo-lint:", err)
		return 2
	}
	pkgs, err = filterPackages(loader, pkgs, flag.Args(), root, *chdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cosmo-lint:", err)
		return 2
	}

	cfg := lint.DefaultConfig()
	if *checks != "" {
		known := map[string]bool{}
		for _, c := range lint.AllChecks() {
			known[c.Name] = true
		}
		for _, name := range strings.Split(*checks, ",") {
			if !known[name] {
				fmt.Fprintf(os.Stderr, "cosmo-lint: unknown check %q\n", name)
				return 2
			}
			cfg.Checks = append(cfg.Checks, name)
		}
	}

	findings := lint.Run(pkgs, cfg)
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

// filterPackages keeps the packages matching the argument patterns:
// "./..." (everything), "dir/..." (a subtree), or a plain directory. A
// plain directory outside the walked set (e.g. a testdata fixture
// package) is loaded explicitly.
func filterPackages(loader *lint.Loader, pkgs []*lint.Package, patterns []string, root, chdir string) ([]*lint.Package, error) {
	if len(patterns) == 0 {
		return pkgs, nil
	}
	base, err := filepath.Abs(chdir)
	if err != nil {
		return nil, err
	}
	var out []*lint.Package
	seen := map[string]bool{}
	for _, pat := range patterns {
		subtree := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			subtree = true
			pat = rest
			if pat == "." || pat == "" {
				for _, p := range pkgs {
					if !seen[p.Dir] {
						seen[p.Dir] = true
						out = append(out, p)
					}
				}
				continue
			}
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(base, dir)
		}
		matched := false
		for _, p := range pkgs {
			ok := p.Dir == dir
			if subtree && !ok {
				ok = strings.HasPrefix(p.Dir+string(filepath.Separator), dir+string(filepath.Separator))
			}
			if ok && !seen[p.Dir] {
				seen[p.Dir] = true
				out = append(out, p)
				matched = true
			} else if ok {
				matched = true
			}
		}
		if !matched && !subtree {
			// Not in the module walk (testdata and friends): load directly.
			pkg, err := loader.LoadDir(dir)
			if err != nil {
				return nil, fmt.Errorf("pattern %q matches no packages (module root %s): %v", pat, root, err)
			}
			if !seen[pkg.Dir] {
				seen[pkg.Dir] = true
				out = append(out, pkg)
			}
			matched = true
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matches no packages (module root %s)", pat, root)
		}
	}
	return out, nil
}
