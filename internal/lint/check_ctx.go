package lint

import (
	"go/ast"
	"go/types"
)

// ctxPropagationCheck enforces the responder contract on serving-path
// packages (Config.CtxPaths): cancellation must flow from the caller to
// every callee that can honor it. Two rules:
//
//  1. context.Background() and context.TODO() are banned outside
//     package main — a library function that mints a root context has
//     severed the caller's deadline and cancellation. Tests are never
//     loaded by the lint driver, so they stay free to use Background.
//  2. A function that receives a context.Context must not call the
//     context-less variant of a callee that has a Context sibling
//     (Foo vs FooContext, m.Bar vs m.BarContext): the context-less
//     variant re-roots the work at Background.
//
// The sibling rule is a naming-convention heuristic — it cannot see
// callees whose ctx-taking variant lives under an unrelated name — but
// like every check it blocks: the module holds itself to zero findings.
var ctxPropagationCheck = Check{
	Name: "ctx-propagation",
	Doc:  "serving-path packages must thread ctx: no Background/TODO outside main, no ctx-less calls when a Context sibling exists",
	Run:  runCtxPropagation,
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// hasCtxParam reports whether the function type declares a
// context.Context parameter, using type info to look through aliases.
func hasCtxParam(info *types.Info, ftype *ast.FuncType) bool {
	if ftype == nil || ftype.Params == nil {
		return false
	}
	for _, field := range ftype.Params.List {
		if tv, ok := info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// takesCtx reports whether fn's own signature accepts a
// context.Context parameter.
func takesCtx(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// contextSibling returns the name of fn's Context-taking sibling
// (Foo -> FooContext, with a context.Context parameter), or "".
func contextSibling(fn *types.Func) string {
	want := fn.Name() + "Context"
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || fn.Pkg() == nil {
		return ""
	}
	var obj types.Object
	if recv := sig.Recv(); recv != nil {
		obj, _, _ = types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), want)
	} else {
		obj = fn.Pkg().Scope().Lookup(want)
	}
	sib, ok := obj.(*types.Func)
	if !ok || !takesCtx(sib) {
		return ""
	}
	return want
}

func runCtxPropagation(p *Pass) {
	if !pathInAny(p.Pkg.Path(), p.Config.CtxPaths) {
		return
	}
	isMain := p.Pkg.Name() == "main"
	forEachFuncBody(p.Files, func(fb funcBody) {
		holdsCtx := hasCtxParam(p.Info, fb.ftype)
		inspectShallow(fb.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p.Info, call)
			if fn == nil {
				return true
			}
			if pkgPath, name, ok := pkgFuncName(fn); ok && pkgPath == "context" && (name == "Background" || name == "TODO") {
				if !isMain {
					p.Reportf(call.Pos(), "ctx-propagation",
						"context.%s severs the caller's cancellation and deadline; accept a ctx parameter and thread it (package main is the only legitimate root)",
						name)
				}
				return true
			}
			if holdsCtx && !takesCtx(fn) {
				if sib := contextSibling(fn); sib != "" {
					p.Reportf(call.Pos(), "ctx-propagation",
						"this function holds a ctx but calls %s, which has a Context sibling; call %s(ctx, ...) so cancellation propagates",
						fn.Name(), sib)
				}
			}
			return true
		})
	})
}
