package lint

import (
	"go/ast"
	"go/types"
)

// mutexHygieneCheck guards the two lock mistakes that survive go vet
// and code review alike:
//
//  1. A type containing a sync.Mutex/RWMutex passed or received by
//     value. The copy has its own lock state, so the "critical
//     section" silently stops excluding anything. (go vet's copylocks
//     catches assignments, but a by-value receiver or parameter on
//     your own type is legal and compiles clean.)
//  2. A Lock()/RLock() in a function with several return paths and no
//     matching defer Unlock()/RUnlock(). One early return added later
//     leaks the lock and deadlocks the serving layer under load —
//     exactly the failure mode heavy-traffic code cannot afford.
var mutexHygieneCheck = Check{
	Name: "mutex-hygiene",
	Doc:  "forbid by-value mutex params/receivers and non-deferred unlocks on multi-return functions",
	Run:  runMutexHygiene,
}

func runMutexHygiene(p *Pass) {
	byValueMutexes(p)
	leakedLocks(p)
}

// byValueMutexes flags receivers and parameters whose non-pointer type
// transitively contains a mutex.
func byValueMutexes(p *Pass) {
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
				locker := lockerName(tv.Type)
				if locker == "" {
					continue
				}
				kind := "parameter"
				if fd.Recv != nil && len(fd.Recv.List) > 0 && field == fd.Recv.List[0] {
					kind = "receiver"
				}
				p.Reportf(field.Type.Pos(), "mutex-hygiene",
					"%s %s of %s contains %s and is passed by value; the copy locks nothing — use a pointer",
					kind, exprText(field.Type), fd.Name.Name, locker)
			}
		}
	}
}

// lockSite is one Lock/RLock call found in a function body.
type lockSite struct {
	call   *ast.CallExpr
	method string // "Lock" or "RLock"
	recv   string // receiver expression text, e.g. "s.mu"
}

// unlockFor maps a lock method to its releasing counterpart.
func unlockFor(method string) string {
	if method == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
}

// leakedLocks flags Lock/RLock calls in function scopes that have
// multiple return statements but no deferred matching unlock on the
// same receiver expression.
func leakedLocks(p *Pass) {
	forEachFuncBody(p.Files, func(fb funcBody) {
		var locks []lockSite
		deferred := map[string]bool{} // "Unlock s.mu" -> true
		inspectShallow(fb.body, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.DeferStmt:
				if m, recv := syncLockMethod(p.Info, stmt.Call); m == "Unlock" || m == "RUnlock" {
					deferred[m+" "+recv] = true
				}
			case *ast.CallExpr:
				if m, recv := syncLockMethod(p.Info, stmt); m == "Lock" || m == "RLock" {
					locks = append(locks, lockSite{call: stmt, method: m, recv: recv})
				}
			}
			return true
		})
		if len(locks) == 0 {
			return
		}
		returns := countReturns(fb.body)
		if returns < 2 {
			return
		}
		for _, l := range locks {
			want := unlockFor(l.method)
			if deferred[want+" "+l.recv] {
				continue
			}
			p.Reportf(l.call.Pos(), "mutex-hygiene",
				"%s.%s() in a function with %d return paths and no defer %s.%s(); an early return leaks the lock",
				l.recv, l.method, returns, l.recv, want)
		}
	})
}
