package lint

import "go/ast"

// mutexHygieneCheck guards the lock mistake that survives go vet and
// code review alike: a Lock()/RLock() in a function with several
// return paths and no matching defer Unlock()/RUnlock(). One early
// return added later leaks the lock and deadlocks the serving layer
// under load — exactly the failure mode heavy-traffic code cannot
// afford. A mutex copied by value (receiver, parameter, assignment,
// range variable) is go vet's copylocks finding, not this check's.
var mutexHygieneCheck = Check{
	Name: "mutex-hygiene",
	Doc:  "forbid non-deferred unlocks on multi-return functions",
	Run:  leakedLocks,
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
