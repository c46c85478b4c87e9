package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// uncheckedNarrowingCheck guards the integer-truncation bug class PR 6
// fixed by hand: Freeze silently truncated node counts through bare
// int32(...) conversions until FreezeChecked added range guards. A
// lossy conversion — one whose target cannot represent every value of
// the source type — is only legal when the code shows evidence the
// value is in range:
//
//   - the operand is a constant that provably fits the target;
//   - the same function compares the operand against a bound
//     (`if n > math.MaxInt32 { ... }`, a loop condition `i < len(xs)`);
//   - the operand is a range-loop index over a slice whose length the
//     function compares (`for i, s := range table` guarded by
//     `len(table) > 256`);
//   - the operand is masked with a constant that fits
//     (`int32(x & 0x7fff)`).
//
// The analysis is 64-bit (int/uint/uintptr are 8 bytes) and evidence
// is syntactic, not a range proof: it certifies that the author
// *thought* about the bound, which is the invariant the FreezeChecked
// bug violated. Same-width signedness flips (uint32(int32) two's-
// complement round trips, hash folding) are deliberately out of scope.
var uncheckedNarrowingCheck = Check{
	Name: "unchecked-narrowing",
	Doc:  "forbid lossy integer conversions (int32(x)-style) without range-guard evidence in the same function",
	Run:  runUncheckedNarrowing,
}

// intWidth returns the bit width of a basic integer kind on 64-bit
// targets, or 0 for non-integer kinds. Untyped ints report 64 (they
// are handled through the constant path first).
func intWidth(k types.BasicKind) int {
	switch k {
	case types.Int, types.Uint, types.Uintptr, types.Int64, types.Uint64, types.UntypedInt:
		return 64
	case types.Int32, types.Uint32:
		return 32
	case types.Int16, types.Uint16:
		return 16
	case types.Int8, types.Uint8:
		return 8
	}
	return 0
}

// basicInt returns the underlying basic integer type of t, or nil.
func basicInt(t types.Type) *types.Basic {
	b, ok := t.Underlying().(*types.Basic)
	if !ok || intWidth(b.Kind()) == 0 {
		return nil
	}
	return b
}

// constFits reports whether constant value v fits the basic integer
// target type.
func constFits(v constant.Value, target *types.Basic) bool {
	v = constant.ToInt(v)
	if v.Kind() != constant.Int {
		return false
	}
	w := intWidth(target.Kind())
	if target.Info()&types.IsUnsigned != 0 {
		u, ok := constant.Uint64Val(v)
		return ok && (w == 64 || u < 1<<uint(w))
	}
	i, ok := constant.Int64Val(v)
	return ok && (w == 64 || (i >= -1<<uint(w-1) && i < 1<<uint(w-1)))
}

// guardEvidence is the per-function record of bound checks: the set of
// compared operand texts and the range-loop index -> ranged-expression
// mapping.
type guardEvidence struct {
	compared map[string]bool     // exprText of each comparison operand
	ranged   map[string][]string // range index var name -> exprTexts of ranged exprs
}

// collectGuards scans one function body for comparison and range-loop
// evidence.
func collectGuards(body *ast.BlockStmt) guardEvidence {
	ev := guardEvidence{compared: map[string]bool{}, ranged: map[string][]string{}}
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.BinaryExpr:
			switch e.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
				ev.compared[exprText(ast.Unparen(e.X))] = true
				ev.compared[exprText(ast.Unparen(e.Y))] = true
			}
		case *ast.RangeStmt:
			if id, ok := e.Key.(*ast.Ident); ok && id.Name != "_" {
				// Accumulate: the same index name may range over several
				// expressions in one function; evidence for any of them
				// counts (syntactic heuristic, like the rest).
				ev.ranged[id.Name] = append(ev.ranged[id.Name], exprText(ast.Unparen(e.X)))
			}
		}
		return true
	})
	return ev
}

// guarded reports whether the conversion operand has bound evidence:
// its own text was compared, or it is a range index over an expression
// whose len() was compared.
func (ev guardEvidence) guarded(arg ast.Expr) bool {
	text := exprText(ast.Unparen(arg))
	if ev.compared[text] {
		return true
	}
	if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
		for _, over := range ev.ranged[id.Name] {
			if ev.compared["len("+over+")"] {
				return true
			}
		}
	}
	return false
}

// maskedTo reports whether arg is an and-mask with a constant that fits
// the target (int32(x & 0x7fff) cannot truncate).
func maskedTo(info *types.Info, arg ast.Expr, target *types.Basic) bool {
	bin, ok := ast.Unparen(arg).(*ast.BinaryExpr)
	if !ok || bin.Op != token.AND {
		return false
	}
	for _, side := range []ast.Expr{bin.X, bin.Y} {
		if tv, ok := info.Types[side]; ok && tv.Value != nil && constFits(tv.Value, target) {
			return true
		}
	}
	return false
}

func runUncheckedNarrowing(p *Pass) {
	forEachFuncBody(p.Files, func(fb funcBody) {
		ev := collectGuards(fb.body)
		inspectShallow(fb.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			tv, ok := p.Info.Types[call.Fun]
			if !ok || !tv.IsType() {
				return true
			}
			target := basicInt(tv.Type)
			if target == nil {
				return true
			}
			arg := call.Args[0]
			argTV, ok := p.Info.Types[arg]
			if !ok {
				return true
			}
			// Constants: provably in range is fine, provably lossy is a
			// finding regardless of guards.
			if argTV.Value != nil {
				if !constFits(argTV.Value, target) {
					p.Reportf(call.Pos(), "unchecked-narrowing",
						"constant %s overflows %s; the conversion truncates silently",
						argTV.Value.ExactString(), target.Name())
				}
				return true
			}
			src := basicInt(argTV.Type)
			if src == nil || intWidth(target.Kind()) >= intWidth(src.Kind()) {
				return true
			}
			if ev.guarded(arg) || maskedTo(p.Info, arg, target) {
				return true
			}
			p.Reportf(call.Pos(), "unchecked-narrowing",
				"%s(%s) narrows %s to %d bits with no range guard in this function; check the bound first (cf. kg.FreezeChecked) or suppress with a reasoned //cosmo:lint-ignore",
				target.Name(), exprText(arg), src.Name(), intWidth(target.Kind()))
			return true
		})
	})
}
