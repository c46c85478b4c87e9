package lint

import (
	"go/ast"
	"strings"
)

// frozenServingCheck keeps the serving read path on the immutable
// kg.Snapshot. Every query method of the mutable kg.Graph takes the
// graph's RWMutex; calling one from the request path reintroduces the
// lock contention the frozen-snapshot design exists to remove, and a
// single stray call can hide until production load makes it visible.
// Packages listed in Config.FrozenServingPaths must obtain their view
// via Graph.Freeze() and query the snapshot; the Graph's constructive
// API (AddNode, AddEdge, Freeze, serialization) remains legal so those
// packages can still build and persist graphs.
var frozenServingCheck = Check{
	Name:     "frozen-serving",
	Doc:      "serving-path packages must query frozen kg.Snapshot views, not the locked kg.Graph",
	Severity: SeverityError,
	Run:      runFrozenServing,
}

// frozenGraphMethods are the lock-taking query methods of kg.Graph that
// have a Snapshot equivalent. Constructive and serialization methods
// (AddNode, AddEdge, Freeze, WriteJSONL, WriteTSV, ...) are not listed:
// the serving path may legitimately freeze or persist a graph.
var frozenGraphMethods = map[string]bool{
	"Node":            true,
	"Nodes":           true,
	"Edges":           true,
	"EdgesFrom":       true,
	"EdgesTo":         true,
	"EdgesByRelation": true,
	"EdgesInDomain":   true,
	"IntentionsFor":   true,
	"RelatedProducts": true,
	"BuildHierarchy":  true,
	"ComputeStats":    true,
	"Subgraph":        true,
	"NumNodes":        true,
	"NumEdges":        true,
	"NumRelations":    true,
}

// kgGraphRecv is the funcKey receiver prefix of kg.Graph's pointer
// methods.
const kgGraphRecv = "(*cosmo/internal/kg.Graph)."

func runFrozenServing(p *Pass) {
	if !pathInAny(p.Pkg.Path(), p.Config.FrozenServingPaths) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			key := funcKey(calleeFunc(p.Info, call))
			if !strings.HasPrefix(key, kgGraphRecv) {
				return true
			}
			method := strings.TrimPrefix(key, kgGraphRecv)
			if !frozenGraphMethods[method] {
				return true
			}
			p.Reportf(call.Pos(), "frozen-serving",
				"(*kg.Graph).%s takes the graph lock on the serving path; freeze a kg.Snapshot and query that instead", method)
			return true
		})
	}
}
