package lint

import (
	"go/ast"
	"go/types"
)

// seededRandCheck enforces the determinism contract of the pipeline:
// every random draw must come from an injected *rand.Rand built as
// rand.New(rand.NewSource(seed)). Package-level math/rand functions
// (rand.Intn, rand.Float64, rand.Shuffle, rand.Perm, ...) draw from the
// global generator, whose state is process-wide, unseeded by default,
// and invisible to the experiment configs — any use makes a pipeline
// run unreproducible. Referencing such a function as a value is just as
// bad as calling it, so uses are flagged, not only calls.
var seededRandCheck = Check{
	Name: "seeded-rand",
	Doc:  "forbid global math/rand functions; randomness must flow from a seeded *rand.Rand",
	Run:  runSeededRand,
}

// seededRandAllowed are the math/rand package functions that construct
// seeded state instead of drawing from the global generator.
var seededRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true, // takes an explicit *rand.Rand
	// math/rand/v2 constructors.
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runSeededRand(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, _ := p.Info.Uses[id].(*types.Func)
			pkgPath, name, ok := pkgFuncName(fn)
			if !ok || (pkgPath != "math/rand" && pkgPath != "math/rand/v2") {
				return true
			}
			if seededRandAllowed[name] {
				return true
			}
			p.Reportf(id.Pos(), "seeded-rand",
				"%s.%s draws from the global generator; use an injected *rand.Rand (rand.New(rand.NewSource(seed)))",
				pkgPath, name)
			return true
		})
	}
}
