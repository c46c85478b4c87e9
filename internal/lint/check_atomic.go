package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// atomicHygieneCheck guards the RCU-swap contract the serving tier
// lives on (Deployment holds one atomic.Pointer to its served value,
// readers load it lock-free while Refresh stores a fresh one). A
// variable or field whose address is passed to a sync/atomic function
// (atomic.AddInt64(&s.n, 1)) is an atomic word; every other access to
// it in the package must also go through sync/atomic. A plain read
// races with the atomic writers — the race detector only catches it on
// the schedules you happened to run.
//
// A value holding one of the sync/atomic types copied by value
// (receiver, parameter, assignment, range variable) is go vet's
// copylocks finding, not this check's: those types carry a noCopy
// marker. atomic.Value carries none, so vet misses its copies; the
// module declares no atomic.Value.
var atomicHygieneCheck = Check{
	Name: "atomic-hygiene",
	Doc:  "forbid mixed plain/atomic access to the same word",
	Run:  mixedAtomicAccess,
}

// mixedAtomicAccess collects every variable whose address feeds a
// sync/atomic function, then flags every use of those variables
// outside sync/atomic call arguments.
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
