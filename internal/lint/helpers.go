package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Shared AST/type-walking helpers. Checks are written against these so
// a new check is mostly its Run function: resolve callees with
// calleeFunc/pkgFuncName, walk function bodies with forEachFuncBody,
// and compare lock/field expressions with exprText.

// calleeFunc resolves a call expression to the *types.Func it invokes,
// or nil for builtins, conversions, and indirect calls through
// function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// pkgFuncName returns the package path and name of a package-level
// function (methods and nil funcs return ok=false).
func pkgFuncName(fn *types.Func) (pkgPath, name string, ok bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", "", false
	}
	if sig, _ := fn.Type().(*types.Signature); sig == nil || sig.Recv() != nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// funcKey renders a callee for allowlist matching: "fmt.Printf" for
// package functions, "(*bytes.Buffer).Write" / "(bytes.Buffer).Len"
// for methods.
func funcKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		return "(*" + typePath(ptr.Elem()) + ")." + fn.Name()
	}
	return "(" + typePath(recv) + ")." + fn.Name()
}

// typePath renders a (possibly named) type as pkgpath.Name.
func typePath(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return t.String()
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// exprText renders an expression for structural comparison ("s.mu",
// "c.shards[i].daily"). Two syntactically identical expressions render
// identically, which is what the lock- and field-matching heuristics
// need.
func exprText(e ast.Expr) string {
	return types.ExprString(e)
}

// pathHasPrefix reports whether an import path equals prefix or lives
// under it ("cosmo/internal/serving" matches prefix "cosmo/internal").
func pathHasPrefix(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

// pathInAny reports whether path matches any of the prefixes.
func pathInAny(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if pathHasPrefix(path, p) {
			return true
		}
	}
	return false
}

// funcBody is one function-shaped scope: a declared function/method or
// a function literal. Literals are analyzed as their own scopes so a
// callback's returns don't count against its enclosing function.
type funcBody struct {
	decl  *ast.FuncDecl // nil for literals
	ftype *ast.FuncType
	body  *ast.BlockStmt
}

// forEachFuncBody visits every function body in the files, treating
// nested function literals as separate scopes.
func forEachFuncBody(files []*ast.File, visit func(fb funcBody)) {
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			visit(funcBody{decl: fd, ftype: fd.Type, body: fd.Body})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					visit(funcBody{ftype: lit.Type, body: lit.Body})
				}
				return true
			})
		}
	}
}

// inspectShallow walks a function body but does not descend into
// nested function literals (they are separate scopes).
func inspectShallow(body *ast.BlockStmt, visit func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != nil {
			return false
		}
		return visit(n)
	})
}

// countReturns counts return statements in a body, excluding nested
// function literals.
func countReturns(body *ast.BlockStmt) int {
	n := 0
	inspectShallow(body, func(node ast.Node) bool {
		if _, ok := node.(*ast.ReturnStmt); ok {
			n++
		}
		return true
	})
	return n
}

// syncLockMethod resolves a call like x.Lock() / x.RLock() to the sync
// method name if the callee is a method of sync.Mutex or sync.RWMutex
// (including promoted calls through embedding). It returns the method
// name and the receiver expression text ("s.mu").
func syncLockMethod(info *types.Info, call *ast.CallExpr) (method, recv string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return fn.Name(), exprText(sel.X)
	}
	return "", ""
}
