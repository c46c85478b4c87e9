package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// sentinelCompareCheck enforces errors.Is over == / != against exported
// sentinel errors. PR 6's ErrSnapshotMagic/Version/Corrupt family is
// returned wrapped ("%w: ..."), so a direct identity comparison is a
// latent bug: it silently stops matching the moment any layer adds
// context. The check flags binary comparisons and switch cases where
// one operand resolves to an exported package-level variable whose type
// implements error. Comparisons against nil and against unexported
// package-internal sentinels (which never cross a wrap boundary the
// package doesn't control) stay legal.
var sentinelCompareCheck = Check{
	Name: "sentinel-compare",
	Doc:  "require errors.Is instead of ==/!= against exported sentinel error variables",
	Run:  runSentinelCompare,
}

// errorInterface is the universe error interface, for Implements tests.
var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// sentinelError resolves e to an exported package-level error variable
// and returns its rendered name ("io.EOF", "kg.ErrSnapshotMagic"), or
// "" if e is anything else.
func sentinelError(info *types.Info, e ast.Expr) string {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return ""
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || !v.Exported() || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return ""
	}
	if !types.Implements(v.Type(), errorInterface) {
		return ""
	}
	return v.Pkg().Name() + "." + v.Name()
}

func runSentinelCompare(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.BinaryExpr:
				if e.Op != token.EQL && e.Op != token.NEQ {
					return true
				}
				for _, side := range []ast.Expr{e.X, e.Y} {
					if name := sentinelError(p.Info, side); name != "" {
						verb := "errors.Is(err, " + name + ")"
						if e.Op == token.NEQ {
							verb = "!" + verb
						}
						p.Reportf(e.OpPos, "sentinel-compare",
							"comparing against sentinel %s with %s breaks once the error is wrapped; use %s",
							name, e.Op, verb)
						return true
					}
				}
			case *ast.SwitchStmt:
				if e.Tag == nil {
					return true
				}
				tv, ok := p.Info.Types[e.Tag]
				if !ok || !types.Implements(tv.Type, errorInterface) {
					return true
				}
				for _, stmt := range e.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, val := range cc.List {
						if name := sentinelError(p.Info, val); name != "" {
							p.Reportf(val.Pos(), "sentinel-compare",
								"switch case %s compares the error by identity and breaks once it is wrapped; use if/else with errors.Is",
								name)
						}
					}
				}
			}
			return true
		})
	}
}
