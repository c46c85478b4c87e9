package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Directive is the suppression comment recognized by the analyzer:
//
//	//cosmo:lint-ignore <check>[,<check>...] <reason>
//
// placed on the offending line or on the line directly above it. The
// reason is mandatory — an exception nobody can explain is a bug.
const Directive = "//cosmo:lint-ignore"

// ignoreIndex maps filename -> line -> set of suppressed check names.
type ignoreIndex map[string]map[int]map[string]bool

// suppressed reports whether a finding of check at file:line is covered
// by a directive on the same line or the line above.
func (ix ignoreIndex) suppressed(file string, line int, check string) bool {
	lines := ix[file]
	if lines == nil {
		return false
	}
	return lines[line][check] || lines[line-1][check]
}

// buildIgnoreIndex scans every comment in the package for directives.
// Directives missing a check name or a reason, or naming a check that
// is not in AllChecks (a typo, or a check since deleted), are returned
// as findings under the pseudo-check "lint-ignore" (they cannot
// suppress anything, including themselves).
func buildIgnoreIndex(fset *token.FileSet, files []*ast.File) (ignoreIndex, []Finding) {
	ix := ignoreIndex{}
	var bad []Finding
	known := map[string]bool{}
	for _, c := range AllChecks() {
		known[c.Name] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, Directive)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					bad = append(bad, Finding{
						File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Check:   "lint-ignore",
						Message: "directive names no check: want //cosmo:lint-ignore <check> <reason>",
					})
					continue
				}
				if len(fields) < 2 {
					bad = append(bad, Finding{
						File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Check:   "lint-ignore",
						Message: "directive has no reason: a suppression must say why the exception is safe",
					})
					continue
				}
				names := strings.Split(fields[0], ",")
				unknown := ""
				for _, name := range names {
					if name != "" && !known[name] {
						unknown = name
						break
					}
				}
				if unknown != "" {
					bad = append(bad, Finding{
						File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Check:   "lint-ignore",
						Message: fmt.Sprintf("directive names unknown check %q: it suppresses nothing", unknown),
					})
					continue
				}
				lines := ix[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					ix[pos.Filename] = lines
				}
				checks := lines[pos.Line]
				if checks == nil {
					checks = map[string]bool{}
					lines[pos.Line] = checks
				}
				for _, name := range names {
					if name != "" {
						checks[name] = true
					}
				}
			}
		}
	}
	return ix, bad
}
