package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// droppedErrorCheck forbids silently discarding errors: a call whose
// error result is never bound (a bare expression statement) or is
// assigned to the blank identifier. A knowledge pipeline that drops an
// error mid-stage produces a silently truncated KG — the worst failure
// mode for a system whose whole point is coverage. Intentional drops
// (best-effort HTTP response writes, merge-dedup inserts) must carry a
// //cosmo:lint-ignore directive saying why the error is unactionable,
// or appear in Config.ErrorAllowlist.
var droppedErrorCheck = Check{
	Name: "dropped-error",
	Doc:  "forbid error returns dropped as bare statements or assigned to _",
	Run:  runDroppedError,
}

var errorType = types.Universe.Lookup("error").Type()

func runDroppedError(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
				if !ok {
					return true
				}
				if pos, ok := dropsError(p, call); ok {
					p.Reportf(pos, "dropped-error",
						"result %s of %s is discarded; handle the error or suppress with a reasoned //cosmo:lint-ignore",
						errorResultLabel(p, call), calleeLabel(p, call))
				}
			case *ast.AssignStmt:
				checkBlankErrorAssign(p, stmt)
			}
			return true
		})
	}
}

// checkBlankErrorAssign flags `_ = fallible()` and `v, _ := twoValued()`
// when the blanked position carries an error.
func checkBlankErrorAssign(p *Pass, stmt *ast.AssignStmt) {
	// Single call returning multiple values: a, _ := f().
	if len(stmt.Rhs) == 1 && len(stmt.Lhs) > 1 {
		call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		tuple, ok := p.Info.Types[stmt.Rhs[0]].Type.(*types.Tuple)
		if !ok {
			return
		}
		for i, lhs := range stmt.Lhs {
			if i >= tuple.Len() || !isBlank(lhs) || !types.Identical(tuple.At(i).Type(), errorType) {
				continue
			}
			if allowedCallee(p, call) {
				continue
			}
			p.Reportf(lhs.Pos(), "dropped-error",
				"error result of %s assigned to _; handle it or suppress with a reasoned //cosmo:lint-ignore",
				calleeLabel(p, call))
		}
		return
	}
	// Pairwise assignments: _ = f() (and _, _ = f(), g()).
	if len(stmt.Lhs) != len(stmt.Rhs) {
		return
	}
	for i, lhs := range stmt.Lhs {
		if !isBlank(lhs) {
			continue
		}
		rhs := ast.Unparen(stmt.Rhs[i])
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		tv, ok := p.Info.Types[stmt.Rhs[i]]
		if !ok || !types.Identical(tv.Type, errorType) {
			continue
		}
		if allowedCallee(p, call) {
			continue
		}
		p.Reportf(lhs.Pos(), "dropped-error",
			"error result of %s assigned to _; handle it or suppress with a reasoned //cosmo:lint-ignore",
			calleeLabel(p, call))
	}
}

// dropsError reports whether the call produces an error that the bare
// statement discards, returning the position to report at.
func dropsError(p *Pass, call *ast.CallExpr) (token.Pos, bool) {
	if allowedCallee(p, call) {
		return token.NoPos, false
	}
	tv, ok := p.Info.Types[call]
	if !ok {
		return token.NoPos, false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errorType) {
				return call.Pos(), true
			}
		}
	default:
		if types.Identical(tv.Type, errorType) {
			return call.Pos(), true
		}
	}
	return token.NoPos, false
}

// allowedCallee reports whether the call resolves to a function on the
// config's dropped-error allowlist.
func allowedCallee(p *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return false
	}
	key := funcKey(fn)
	for _, allowed := range p.Config.ErrorAllowlist {
		if key == allowed {
			return true
		}
	}
	return false
}

// calleeLabel renders the callee for a diagnostic ("kg.AddEdge",
// "(*json.Encoder).Encode", or "call" when unresolvable).
func calleeLabel(p *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return "call"
	}
	if key := funcKey(fn); key != "" {
		return key
	}
	return fn.Name()
}

// errorResultLabel says which result is the error ("error" for a
// single result, "#2 (error)" for tuples).
func errorResultLabel(p *Pass, call *ast.CallExpr) string {
	tv, ok := p.Info.Types[call]
	if !ok {
		return "error"
	}
	if t, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errorType) {
				return labelForIndex(i, t.Len())
			}
		}
	}
	return "error"
}

func labelForIndex(i, n int) string {
	if n == 1 {
		return "error"
	}
	return fmt.Sprintf("#%d (error)", i+1)
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}
