package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// allocFreeCheck certifies functions annotated
//
//	//cosmo:alloc-free
//
// in their doc comment. The annotation is the static mirror of the
// AllocsPerRun==0 benchmarks guarding the PR 4 hot path
// (Snapshot.IntentionsFor, Snapshot.RelatedProducts, embedding.Embed):
// the tests prove the current compiler emits no allocations, the
// annotation makes the *source-level* discipline that keeps it true
// reviewable and machine-checked. The contract is "no hidden or
// unbounded allocation sites":
//
//   - no append without cap evidence in the same function (a 3-arg
//     make, an x[:0] reslice of pooled scratch, an unsafe.Slice view
//     whose length the author stated, or a slice parameter — appending
//     to a caller-provided destination and returning it is the
//     strconv.Append* idiom: the capacity budget lives with the
//     caller, as internal/wire's encoders rely on);
//   - no non-constant string concatenation, and no string<->[]byte/
//     []rune conversions. A type parameter counts as every type in its
//     constraint's type set, so string(q) on a q of type K string |
//     []byte copies; such a conversion is exempt only as the index of a
//     map read or an operand of a comparison, where gc does not copy
//     (a map write stores the key, so m[string(q)] = v is reported);
//   - no map or channel make, no map/slice composite literals, no new;
//   - no function literals that capture variables (captured vars
//     escape);
//   - no fmt calls;
//   - no interface boxing: conversions or call arguments placing a
//     non-pointer-shaped concrete value (struct, slice, string,
//     basic) into an interface parameter.
//
// Deliberate, sized allocations — make([]T, n) and struct literals —
// stay legal: the contract bans the allocations that creep in by
// accident, and the AllocsPerRun tests remain the runtime oracle for
// what the compiler actually emits (escape analysis can both save and
// betray you; the static check only sees the source).
var allocFreeCheck = Check{
	Name: "alloc-free",
	Doc:  "certify //cosmo:alloc-free annotated functions: no hidden or unbounded allocation constructs in the body",
	Run:  runAllocFree,
}

// AllocFreeDirective is the function annotation the alloc-free check
// certifies.
const AllocFreeDirective = "//cosmo:alloc-free"

// hasAllocFreeMarker reports whether the doc comment carries the
// annotation.
func hasAllocFreeMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == AllocFreeDirective || strings.HasPrefix(text, AllocFreeDirective+" ") {
			return true
		}
	}
	return false
}

// builtinName resolves a call to the builtin it invokes ("append",
// "make", "new"), or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// isUnsafeSliceCall reports whether the call is unsafe.Slice(ptr, n) —
// an aliasing view over existing memory with an explicit length bound,
// the mmap-serving counterpart of a 3-arg make: the author stated the
// capacity in the source, so growth against it is reviewable.
func isUnsafeSliceCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	b, ok := info.Uses[sel.Sel].(*types.Builtin)
	return ok && b.Name() == "Slice"
}

// isZeroReslice reports whether e is an x[:0]-style reslice — the
// idiom that re-arms pooled scratch without allocating.
func isZeroReslice(info *types.Info, e ast.Expr) bool {
	sl, ok := ast.Unparen(e).(*ast.SliceExpr)
	if !ok || sl.High == nil {
		return false
	}
	tv, ok := info.Types[sl.High]
	if !ok || tv.Value == nil {
		return false
	}
	v, ok := constant.Int64Val(constant.ToInt(tv.Value))
	return ok && v == 0
}

// collectCapEvidence records, per function, every expression that the
// source visibly bounds: assigned from a 3-arg make (explicit cap),
// from an x[:0] reslice, or received as a slice parameter (the
// strconv.Append*-style destination whose capacity the caller owns).
// append onto one of these is growth within a budget the author stated.
func collectCapEvidence(info *types.Info, params *ast.FieldList, body *ast.BlockStmt) map[string]bool {
	capped := map[string]bool{}
	if params != nil {
		for _, f := range params.List {
			for _, name := range f.Names {
				v, ok := info.Defs[name].(*types.Var)
				if !ok {
					continue
				}
				if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
					capped[name.Name] = true
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			evidence := false
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				if builtinName(info, call) == "make" && len(call.Args) == 3 {
					evidence = true
				}
				if isUnsafeSliceCall(info, call) {
					evidence = true
				}
			}
			if isZeroReslice(info, rhs) {
				evidence = true
			}
			if evidence {
				capped[exprText(ast.Unparen(as.Lhs[i]))] = true
			}
		}
		return true
	})
	return capped
}

// pointerShaped reports whether boxing a value of type t into an
// interface is allocation-free: pointers, interfaces, and the
// pointer-shaped reference types (chan, map, func) fit in the
// interface word; everything else (struct, slice, string, array,
// basic) is copied to the heap.
func pointerShaped(t types.Type) bool {
	if t == nil {
		return true // untyped nil
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() == types.UnsafePointer || b.Kind() == types.UntypedNil
	}
	return false
}

// isStringy reports whether t is string-kinded.
func isStringy(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// admits reports whether t is a type parameter whose type set holds
// one of ts.
func admits(t types.Type, ts ...types.Type) bool {
	tp, ok := t.(*types.TypeParam)
	if !ok {
		return false
	}
	c := tp.Constraint().Underlying().(*types.Interface)
	return slices.ContainsFunc(ts, func(u types.Type) bool { return types.Satisfies(u, c) })
}

// The string and slice types a string conversion copies between.
var (
	stringType = types.Typ[types.String]
	sliceTypes = []types.Type{types.NewSlice(types.Typ[types.Byte]), types.NewSlice(types.Typ[types.Rune])}
)

// convCopies reports whether converting from to to copies the contents:
// string <-> []byte/[]rune, a type parameter counting as every type in
// its type set.
func convCopies(to, from types.Type) bool {
	stringy := func(t types.Type) bool { return isStringy(t) || admits(t, stringType) }
	slice := func(t types.Type) bool { return isByteOrRuneSlice(t) || admits(t, sliceTypes...) }
	return stringy(to) && slice(from) || slice(to) && stringy(from)
}

// freeConversionSites collects the expressions where gc does not copy
// a string conversion: the index of a map read and an operand of a
// comparison. The index of a map write is not one: the map keeps it.
func freeConversionSites(info *types.Info, body *ast.BlockStmt) map[ast.Expr]bool {
	free := map[ast.Expr]bool{}
	writes := map[*ast.IndexExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range e.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					writes[ix] = true
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := ast.Unparen(e.X).(*ast.IndexExpr); ok {
				writes[ix] = true
			}
		case *ast.IndexExpr:
			if tv, ok := info.Types[e.X]; ok && !writes[e] {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					free[ast.Unparen(e.Index)] = true
				}
			}
		case *ast.BinaryExpr:
			switch e.Op {
			case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
				free[ast.Unparen(e.X)] = true
				free[ast.Unparen(e.Y)] = true
			}
		}
		return true
	})
	return free
}

// isByteOrRuneSlice reports whether t is []byte or []rune.
func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// capturesOuter reports whether the function literal references a
// variable declared outside its own Pos/End range (a capture, which
// forces the variable — and usually the closure — onto the heap).
func capturesOuter(info *types.Info, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level vars are not captures; anything declared before
		// the literal begins is.
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = true
			return false
		}
		return true
	})
	return captured
}

// checkAllocFreeBody walks one annotated function and reports every
// construct outside the contract.
func checkAllocFreeBody(p *Pass, name string, params *ast.FieldList, body *ast.BlockStmt) {
	capped := collectCapEvidence(p.Info, params, body)
	free := freeConversionSites(p.Info, body)
	report := func(pos token.Pos, construct string) {
		p.Reportf(pos, "alloc-free",
			"%s in %s, which is annotated %s; hoist it, pool it, or drop the annotation",
			construct, name, AllocFreeDirective)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			if capturesOuter(p.Info, e) {
				report(e.Pos(), "function literal capturing outer variables (closure + captured vars escape to the heap)")
			}
			return true
		case *ast.CompositeLit:
			tv, ok := p.Info.Types[e]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				report(e.Pos(), "map composite literal")
			case *types.Slice:
				report(e.Pos(), "slice composite literal")
			}
			return true
		case *ast.BinaryExpr:
			if e.Op == token.ADD {
				if tv, ok := p.Info.Types[e]; ok && tv.Value == nil && isStringy(tv.Type) {
					report(e.Pos(), "non-constant string concatenation")
				}
			}
			return true
		case *ast.AssignStmt:
			if e.Tok == token.ADD_ASSIGN && len(e.Lhs) == 1 {
				if tv, ok := p.Info.Types[e.Lhs[0]]; ok && isStringy(tv.Type) {
					report(e.Pos(), "string += concatenation")
				}
			}
			return true
		case *ast.CallExpr:
			checkAllocFreeCall(p, e, capped, free, report)
			return true
		}
		return true
	})
}

// checkAllocFreeCall applies the per-call rules: builtins, string
// conversions, fmt, and interface boxing. free holds the sites where a
// conversion involving a type parameter does not copy.
func checkAllocFreeCall(p *Pass, call *ast.CallExpr, capped map[string]bool, free map[ast.Expr]bool, report func(token.Pos, string)) {
	switch builtinName(p.Info, call) {
	case "append":
		if len(call.Args) == 0 {
			return
		}
		dst := ast.Unparen(call.Args[0])
		if capped[exprText(dst)] || isZeroReslice(p.Info, dst) {
			return
		}
		report(call.Pos(), "append without cap evidence (no 3-arg make, [:0] reslice, or slice parameter as the destination in this function)")
		return
	case "make":
		if len(call.Args) == 0 {
			return
		}
		tv, ok := p.Info.Types[call.Args[0]]
		if !ok {
			return
		}
		switch tv.Type.Underlying().(type) {
		case *types.Map:
			report(call.Pos(), "map make")
		case *types.Chan:
			report(call.Pos(), "channel make")
		}
		return
	case "new":
		report(call.Pos(), "new()")
		return
	case "":
		// not a builtin; fall through
	default:
		return
	}

	// Conversions: string <-> []byte/[]rune copy, and boxing into an
	// interface type.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		argTV := p.Info.Types[call.Args[0]]
		_, toTP := tv.Type.(*types.TypeParam)
		if argTV.Value == nil && convCopies(tv.Type, argTV.Type) { // constant conversions fold away
			_, fromTP := argTV.Type.(*types.TypeParam)
			if !free[call] || !toTP && !fromTP {
				report(call.Pos(), "string/slice conversion (copies the contents)")
			}
		}
		// A type parameter's underlying type is its constraint interface,
		// but a conversion to it yields a value of the type argument and
		// never boxes.
		if _, ok := tv.Type.Underlying().(*types.Interface); ok && !toTP && !pointerShaped(argTV.Type) {
			report(call.Pos(), "interface conversion of a non-pointer value (boxes it on the heap)")
		}
		return
	}

	fn := calleeFunc(p.Info, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		report(call.Pos(), "fmt."+fn.Name()+" call (formats through interfaces and allocates)")
		return
	}

	// Interface-typed parameters receiving non-pointer-shaped concrete
	// arguments box them.
	sig, _ := p.Info.Types[call.Fun].Type.(*types.Signature)
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				param = sig.Params().At(sig.Params().Len() - 1).Type()
			} else {
				sl, _ := sig.Params().At(sig.Params().Len() - 1).Type().Underlying().(*types.Slice)
				if sl == nil {
					continue
				}
				param = sl.Elem()
			}
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		default:
			continue
		}
		if _, ok := param.Underlying().(*types.Interface); !ok {
			continue
		}
		argTV, ok := p.Info.Types[arg]
		if !ok || argTV.Value != nil {
			continue
		}
		if !pointerShaped(argTV.Type) {
			report(arg.Pos(), "non-pointer argument passed as interface parameter (boxes it on the heap)")
		}
	}
}

func runAllocFree(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasAllocFreeMarker(fd.Doc) {
				continue
			}
			checkAllocFreeBody(p, fd.Name.Name, fd.Type.Params, fd.Body)
		}
	}
}
