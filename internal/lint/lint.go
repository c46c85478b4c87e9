// Package lint is cosmo's project-specific static analyzer. It encodes
// the invariants that keep the reproduction correct but that go vet
// cannot see: all randomness flows from a seeded *rand.Rand, no
// wall-clock reads in deterministic pipeline code, lock/unlock pairs
// survive every return path, long-lived serving state never grows
// without bound, and errors are never silently dropped. Locks and
// atomics copied by value are go vet's copylocks, not a check here.
//
// The driver loads the named packages and their imports with go/parser
// and go/types (stdlib only — the repo stays dependency-free), runs a
// registry of named checks over each, and emits findings as
//
//	file:line: [check-name] message
//
// Intentional exceptions are suppressed in source with a reasoned
// directive on the offending line or the line above:
//
//	//cosmo:lint-ignore <check> <reason>
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	File    string `json:"file"` // module-root-relative path
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// String renders the canonical "file:line: [check] message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Check, f.Message)
}

// Config tunes which packages a check applies to. Paths are import-path
// prefixes (a prefix matches the path itself or any sub-package).
type Config struct {
	// Checks restricts the run to the named checks; empty means all.
	Checks []string
	// WallclockAllow lists packages where time.Now/Since/Until are
	// legitimate (latency measurement, serving refresh clocks).
	WallclockAllow []string
	// ServingPaths lists packages whose types are long-lived serving
	// state, where unbounded growth of struct fields is a memory leak.
	ServingPaths []string
	// ErrorAllowlist lists callees whose dropped errors are tolerated,
	// keyed as "pkg.Func" or "(*pkg.Type).Method".
	ErrorAllowlist []string
	// CtxPaths lists packages held to the context-propagation contract:
	// context.Background/TODO are banned outside package main, and a
	// function holding a ctx must not call the context-less variant of a
	// callee that has a Context sibling.
	CtxPaths []string
}

// DefaultConfig returns the repo's own policy: wall-clock reads are
// confined to the serving layer and the load/latency tools, and the
// serving package is held to the bounded-memory invariant.
func DefaultConfig() Config {
	return Config{
		WallclockAllow: []string{
			"cosmo/internal/serving",
			"cosmo/internal/cluster",
			"cosmo/internal/faults",
			"cosmo/cmd/cosmo-serve",
			"cosmo/cmd/cosmo-router",
			"cosmo/cmd/cosmo-loadgen",
			"cosmo/cmd/cosmo-bench",
		},
		ServingPaths: []string{
			"cosmo/internal/serving",
			"cosmo/internal/wire",
		},
		ErrorAllowlist: []string{
			// Printing to an in-memory or best-effort sink; the error is
			// structurally impossible or unactionable.
			"fmt.Print", "fmt.Printf", "fmt.Println",
			"fmt.Fprint", "fmt.Fprintf", "fmt.Fprintln",
			"(*strings.Builder).Write", "(*strings.Builder).WriteString",
			"(*strings.Builder).WriteByte", "(*strings.Builder).WriteRune",
			"(*bytes.Buffer).Write", "(*bytes.Buffer).WriteString",
			"(*bytes.Buffer).WriteByte", "(*bytes.Buffer).WriteRune",
		},
		CtxPaths: []string{
			"cosmo/internal/serving",
			"cosmo/internal/cluster",
			"cosmo/internal/faults",
			"cosmo/cmd/cosmo-serve",
			"cosmo/cmd/cosmo-router",
			"cosmo/cmd/cosmo-loadgen",
		},
	}
}

// Check is a named analysis run over one type-checked package.
type Check struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// AllChecks returns the registry in deterministic order. Adding check
// eleven means writing one Run function against Pass and listing it
// here.
func AllChecks() []Check {
	return []Check{
		seededRandCheck,
		wallclockCheck,
		mutexHygieneCheck,
		unboundedAppendCheck,
		droppedErrorCheck,
		uncheckedNarrowingCheck,
		sentinelCompareCheck,
		ctxPropagationCheck,
		allocFreeCheck,
		atomicHygieneCheck,
	}
}

// Pass carries everything a check needs for one package.
type Pass struct {
	Fset   *token.FileSet
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info
	Config Config

	ignores ignoreIndex
	relPath func(string) string
	out     *[]Finding
}

// Reportf records a finding at pos unless a matching
// //cosmo:lint-ignore directive suppresses it.
func (p *Pass) Reportf(pos token.Pos, check, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.ignores.suppressed(position.Filename, position.Line, check) {
		return
	}
	*p.out = append(*p.out, Finding{
		File:    p.relPath(position.Filename),
		Line:    position.Line,
		Col:     position.Column,
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	})
}

// Run executes the configured checks over the loaded packages and
// returns all findings sorted by file, line, column, check.
func Run(pkgs []*Package, cfg Config) []Finding {
	enabled := map[string]bool{}
	for _, name := range cfg.Checks {
		enabled[name] = true
	}
	var out []Finding
	for _, pkg := range pkgs {
		ignores, bad := buildIgnoreIndex(pkg.Fset, pkg.Files)
		// Malformed directives are findings themselves: a suppression
		// without a reason defeats the self-documentation it exists for.
		for _, f := range bad {
			f.File = pkg.relPath(f.File)
			out = append(out, f)
		}
		pass := &Pass{
			Fset:    pkg.Fset,
			Files:   pkg.Files,
			Pkg:     pkg.Types,
			Info:    pkg.Info,
			Config:  cfg,
			ignores: ignores,
			relPath: pkg.relPath,
			out:     &out,
		}
		for _, c := range AllChecks() {
			if len(enabled) > 0 && !enabled[c.Name] {
				continue
			}
			c.Run(pass)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return out
}
