package lint

import (
	"go/ast"
	"go/types"
)

// wallclockCheck keeps wall-clock reads out of deterministic code. The
// pipeline, simulator, and training stages must produce identical
// output for identical seeds; a time.Now() hiding in one of them makes
// two runs diverge in ways no seed can reproduce. Serving and
// measurement packages legitimately read the clock and are allowlisted
// via Config.WallclockAllow — everything else must take timestamps as
// inputs or go through an injected Clock (see serving.Clock).
var wallclockCheck = Check{
	Name: "wallclock",
	Doc:  "forbid time.Now/Since/Until outside allowlisted serving/measurement packages",
	Run:  runWallclock,
}

// wallclockForbidden are the time package functions that read the
// process clock.
var wallclockForbidden = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

func runWallclock(p *Pass) {
	if pathInAny(p.Pkg.Path(), p.Config.WallclockAllow) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, _ := p.Info.Uses[id].(*types.Func)
			pkgPath, name, ok := pkgFuncName(fn)
			if !ok || pkgPath != "time" || !wallclockForbidden[name] {
				return true
			}
			p.Reportf(id.Pos(), "wallclock",
				"time.%s in a deterministic package; inject a Clock or pass timestamps in (allowlist: Config.WallclockAllow)",
				name)
			return true
		})
	}
}
