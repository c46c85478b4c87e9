package lint

import (
	"go/ast"
	"go/types"
)

// unboundedAppendCheck guards the bounded-memory invariant of the
// serving layer: a process meant to survive months of heavy traffic
// must never let a struct field grow monotonically per request. This is
// exactly the bug class PR 1 fixed by hand (the unbounded latency
// slice and the queued-map leak) — encoded here so it cannot regress.
//
// The heuristic: inside packages listed in Config.ServingPaths, a
// method that appends to a slice field of its receiver, or writes to a
// map field of its receiver, must contain *some* cap logic for that
// field in the same method — a len()/cap() inspection, a reslice, a
// delete(), or a wholesale reassignment (rebuild/reset). A method that
// only ever adds is reported.
var unboundedAppendCheck = Check{
	Name: "unbounded-append",
	Doc:  "forbid growth of long-lived serving struct fields without cap logic in the same method",
	Run:  runUnboundedAppend,
}

func runUnboundedAppend(p *Pass) {
	if !pathInAny(p.Pkg.Path(), p.Config.ServingPaths) {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			recvObj := receiverObject(p.Info, fd)
			if recvObj == nil {
				continue
			}
			checkMethodGrowth(p, fd, recvObj)
		}
	}
}

// receiverObject returns the types.Object of the method's receiver
// variable, or nil for anonymous receivers.
func receiverObject(info *types.Info, fd *ast.FuncDecl) types.Object {
	names := fd.Recv.List[0].Names
	if len(names) == 0 {
		return nil
	}
	return info.Defs[names[0]]
}

// growthSite is one statement that grows a receiver field.
type growthSite struct {
	pos   ast.Node
	field string // rendered field expression, e.g. "s.log"
	kind  string // "append" or "map write"
}

func checkMethodGrowth(p *Pass, fd *ast.FuncDecl, recvObj types.Object) {
	var sites []growthSite
	capped := map[string]bool{} // field text -> has cap logic

	markCapped := func(e ast.Expr) {
		if rootedAt(p.Info, e, recvObj) {
			capped[exprText(e)] = true
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			recordAssignGrowth(p, stmt, recvObj, &sites, markCapped)
		case *ast.IncDecStmt:
			// s.seen[k]++ counts as a map write.
			if ix, ok := ast.Unparen(stmt.X).(*ast.IndexExpr); ok {
				if field, ok := mapFieldWrite(p.Info, ix, recvObj); ok {
					sites = append(sites, growthSite{pos: stmt, field: field, kind: "map write"})
				}
			}
		case *ast.CallExpr:
			// len(s.log), cap(s.log), delete(s.seen, k) are cap logic.
			if id, ok := ast.Unparen(stmt.Fun).(*ast.Ident); ok {
				if b, _ := p.Info.Uses[id].(*types.Builtin); b != nil {
					switch b.Name() {
					case "len", "cap", "delete":
						if len(stmt.Args) > 0 {
							markCapped(stmt.Args[0])
						}
					}
				}
			}
		case *ast.SliceExpr:
			// s.log = s.log[1:] — any reslice of the field is cap logic.
			markCapped(stmt.X)
		}
		return true
	})

	for _, site := range sites {
		if capped[site.field] {
			continue
		}
		p.Reportf(site.pos.Pos(), "unbounded-append",
			"%s to %s grows long-lived serving state with no cap logic in %s; bound it (len check, reslice, delete, or rebuild)",
			site.kind, site.field, fd.Name.Name)
	}
}

// recordAssignGrowth classifies one assignment statement: growth site,
// cap logic (reassignment/reslice), or neither.
func recordAssignGrowth(p *Pass, stmt *ast.AssignStmt, recvObj types.Object, sites *[]growthSite, markCapped func(ast.Expr)) {
	if len(stmt.Lhs) != len(stmt.Rhs) {
		return
	}
	for i, lhs := range stmt.Lhs {
		lhs = ast.Unparen(lhs)
		rhs := ast.Unparen(stmt.Rhs[i])

		// Map writes: s.seen[k] = v (also += etc. — any op is a write).
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			if field, ok := mapFieldWrite(p.Info, ix, recvObj); ok {
				*sites = append(*sites, growthSite{pos: stmt, field: field, kind: "map write"})
			}
			continue
		}

		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok || !rootedAt(p.Info, sel, recvObj) {
			continue
		}
		field := exprText(sel)

		// s.log = append(s.log, ...) is a growth site; any other
		// assignment to the field (s.log = nil, s.log = make(...),
		// s.log = s.log[1:]) rebuilds or truncates it — cap logic.
		if call, ok := rhs.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, _ := p.Info.Uses[id].(*types.Builtin); b != nil && b.Name() == "append" {
					if len(call.Args) > 0 && exprText(ast.Unparen(call.Args[0])) == field {
						*sites = append(*sites, growthSite{pos: stmt, field: field, kind: "append"})
						continue
					}
				}
			}
		}
		markCapped(sel)
	}
}

// mapFieldWrite reports whether ix writes through a map-typed field
// reachable from the receiver, returning the field's rendered text.
func mapFieldWrite(info *types.Info, ix *ast.IndexExpr, recvObj types.Object) (string, bool) {
	x := ast.Unparen(ix.X)
	if !rootedAt(info, x, recvObj) {
		return "", false
	}
	tv, ok := info.Types[ix.X]
	if !ok {
		return "", false
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return "", false
	}
	return exprText(x), true
}

// rootedAt reports whether expr is a selector/index chain whose
// innermost identifier resolves to obj (the method receiver).
func rootedAt(info *types.Info, expr ast.Expr, obj types.Object) bool {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.Ident:
			return info.Uses[e] == obj
		default:
			return false
		}
	}
}
