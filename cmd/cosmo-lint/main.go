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
// The patterns are the go tool's, resolved in the -C directory: the
// named packages are type-checked from source against the export data
// of their imports, which one `go list -export -deps` run compiles, and
// only the named ones are linted. GOOS, GOARCH and GOFLAGS tags select
// files as they do for go vet. Findings are printed sorted by file,
// line, column and check, paths relative to the module root.
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

	"cosmo/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("cosmo-lint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	chdir := fs.String("C", ".", "directory to run the go tool in; patterns are relative to it")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cosmo-lint [-json] [-C dir] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Packages are go tool patterns, relative to -C (default ./...).\nChecks:\n")
		for _, c := range lint.AllChecks() {
			fmt.Fprintf(os.Stderr, "  %-19s %s\n", c.Name, c.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	pkgs, err := lint.Load(*chdir, fs.Args()...)
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
