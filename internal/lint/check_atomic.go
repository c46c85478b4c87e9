package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// atomicHygieneCheck guards the RCU-swap contract the serving tier
// lives on (Deployment holds one atomic.Pointer to its served value,
// readers load it lock-free while Refresh stores a fresh one). Two rules:
//
//  1. A type transitively containing a sync/atomic value type
//     (atomic.Pointer[T], atomic.Int64, atomic.Value, ...) must never
//     travel by value — receivers, parameters, plain assignments,
//     dereference copies, or range-over-slice element copies. The copy
//     forks the atomic word: readers of the copy never see later
//     stores, which is exactly the stale-snapshot bug RCU exists to
//     prevent. (go vet's copylocks catches some of these because the
//     atomic types embed noCopy, but by-value receivers and params on
//     your own wrapper types compile clean.)
//  2. A variable or field whose address is passed to a sync/atomic
//     function (atomic.AddInt64(&s.n, 1)) is an atomic word; every
//     other access to it in the package must also go through
//     sync/atomic. A plain read races with the atomic writers — the
//     race detector only catches it on the schedules you happened to
//     run.
var atomicHygieneCheck = Check{
	Name: "atomic-hygiene",
	Doc:  "forbid by-value copies of atomic-containing types and mixed plain/atomic access to the same word",
	Run:  runAtomicHygiene,
}

// atomicName reports which sync/atomic value type t transitively
// contains ("atomic.Int64", "atomic.Pointer", ...), or "". Like
// lockerName it looks through named types, struct fields, and arrays —
// the shapes a copy silently duplicates.
func atomicName(t types.Type) string {
	return atomicNameRec(t, map[types.Type]bool{})
}

func atomicNameRec(t types.Type, seen map[types.Type]bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" {
			switch obj.Name() {
			case "Bool", "Int32", "Int64", "Uint32", "Uint64", "Uintptr", "Pointer", "Value":
				return "atomic." + obj.Name()
			}
		}
		return atomicNameRec(named.Underlying(), seen)
	}
	switch u := t.(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if name := atomicNameRec(u.Field(i).Type(), seen); name != "" {
				return name
			}
		}
	case *types.Array:
		return atomicNameRec(u.Elem(), seen)
	}
	return ""
}

func runAtomicHygiene(p *Pass) {
	byValueAtomics(p)
	mixedAtomicAccess(p)
}

// byValueAtomics flags receivers, parameters, assignments, and range
// clauses that copy an atomic-containing value.
func byValueAtomics(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			var fields []*ast.Field
			if fd.Recv != nil {
				fields = append(fields, fd.Recv.List...)
			}
			if fd.Type.Params != nil {
				fields = append(fields, fd.Type.Params.List...)
			}
			for _, field := range fields {
				tv, ok := p.Info.Types[field.Type]
				if !ok {
					continue
				}
				if _, isPtr := tv.Type.(*types.Pointer); isPtr {
					continue
				}
				name := atomicName(tv.Type)
				if name == "" {
					continue
				}
				kind := "parameter"
				if fd.Recv != nil && len(fd.Recv.List) > 0 && field == fd.Recv.List[0] {
					kind = "receiver"
				}
				p.Reportf(field.Type.Pos(), "atomic-hygiene",
					"%s %s of %s contains %s and is passed by value; the copy forks the atomic word — use a pointer",
					kind, exprText(field.Type), fd.Name.Name, name)
			}
		}
	}
	// Assignments and range clauses that copy an atomic-containing
	// value out of a variable, dereference, or element.
	forEachFuncBody(p.Files, func(fb funcBody) {
		inspectShallow(fb.body, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.AssignStmt:
				for _, rhs := range stmt.Rhs {
					if copiesAtomic(p.Info, rhs) {
						name := atomicName(p.Info.Types[rhs].Type)
						p.Reportf(rhs.Pos(), "atomic-hygiene",
							"assignment copies a value containing %s; the copy forks the atomic word — keep a pointer instead",
							name)
					}
				}
			case *ast.RangeStmt:
				if stmt.Value == nil {
					return true
				}
				// A := range value var is a definition, not an expression:
				// resolve its type through Defs (Uses for = form).
				var t types.Type
				if tv, ok := p.Info.Types[stmt.Value]; ok {
					t = tv.Type
				} else if id, ok := stmt.Value.(*ast.Ident); ok {
					if obj := p.Info.Defs[id]; obj != nil {
						t = obj.Type()
					} else if obj := p.Info.Uses[id]; obj != nil {
						t = obj.Type()
					}
				}
				if t == nil {
					return true
				}
				if name := atomicName(t); name != "" {
					p.Reportf(stmt.Value.Pos(), "atomic-hygiene",
						"range copies elements containing %s by value; range over indices and take pointers",
						name)
				}
			}
			return true
		})
	})
}

// copiesAtomic reports whether evaluating e as an assignment RHS copies
// an atomic-containing value: e is an addressable expression (variable,
// field selector, index, dereference) of such a type. Composite
// literals and calls construct fresh values and are fine.
func copiesAtomic(info *types.Info, e ast.Expr) bool {
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return false
	}
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || !tv.IsValue() {
		return false
	}
	if _, isPtr := tv.Type.(*types.Pointer); isPtr {
		return false
	}
	return atomicName(tv.Type) != ""
}

// mixedAtomicAccess enforces rule 2: collect every variable whose
// address feeds a sync/atomic function, then flag every use of those
// variables outside sync/atomic call arguments.
func mixedAtomicAccess(p *Pass) {
	atomicVars := map[*types.Var]bool{}   // words accessed via sync/atomic
	insideAtomic := map[*ast.Ident]bool{} // idents appearing inside those calls
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						insideAtomic[id] = true
					}
					return true
				})
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				var id *ast.Ident
				switch target := ast.Unparen(un.X).(type) {
				case *ast.Ident:
					id = target
				case *ast.SelectorExpr:
					id = target.Sel
				}
				if id == nil {
					continue
				}
				if v, ok := p.Info.Uses[id].(*types.Var); ok {
					atomicVars[v] = true
				}
			}
			return true
		})
	}
	if len(atomicVars) == 0 {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || insideAtomic[id] {
				return true
			}
			v, ok := p.Info.Uses[id].(*types.Var)
			if !ok || !atomicVars[v] {
				return true
			}
			p.Reportf(id.Pos(), "atomic-hygiene",
				"%s is accessed with sync/atomic elsewhere in this package; this plain access races with the atomic writers — use the matching atomic load/store",
				id.Name)
			return true
		})
	}
}
