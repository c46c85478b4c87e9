package lint

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
)

// fixtureNames are every fixture package under testdata/src; linting
// them alongside the module guarantees the equivalence corpus has a
// non-trivial finding set (the module itself is held to zero).
var fixtureNames = []string{
	"seededrand", "wallclock", "mutexhygiene", "unboundedappend",
	"droppederror", "directives", "uncheckednarrowing",
	"sentinelcompare", "ctxpropagation", "allocfree", "atomichygiene",
}

// fixtureConfig is DefaultConfig widened so the path-gated checks fire
// on their fixture packages.
func fixtureConfig() Config {
	cfg := DefaultConfig()
	cfg.ServingPaths = append(cfg.ServingPaths, "cosmo/internal/lint/testdata/src/unboundedappend")
	cfg.CtxPaths = append(cfg.CtxPaths, "cosmo/internal/lint/testdata/src/ctxpropagation")
	return cfg
}

// lintEverything loads the whole module plus every fixture package on
// a fresh Loader and runs all checks with the given worker count,
// returning the marshaled findings.
func lintEverything(t *testing.T, workers int) []byte {
	t.Helper()
	root := moduleRoot(t)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.LoadAll(workers)
	if err != nil {
		t.Fatalf("LoadAll(workers=%d): %v", workers, err)
	}
	if len(pkgs) == 0 {
		t.Fatal("LoadAll returned no packages")
	}
	for _, name := range fixtureNames {
		pkg, err := l.LoadDir(filepath.Join(root, "internal", "lint", "testdata", "src", name))
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", name, err)
		}
		pkgs = append(pkgs, pkg)
	}
	findings := RunParallel(pkgs, fixtureConfig(), workers)
	if len(findings) == 0 {
		t.Fatal("fixture corpus produced no findings; the equivalence check would be vacuous")
	}
	data, err := json.Marshal(findings)
	if err != nil {
		t.Fatalf("marshal findings: %v", err)
	}
	return data
}

// TestParallelDriverEquivalence is the determinism contract for the
// parallel driver: linting the module plus the full fixture corpus
// with Workers=1 and Workers=8 must produce byte-identical ordered
// findings. Run under -race this also shakes out data races in the
// wave loader and the per-package check fan-out.
func TestParallelDriverEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-module type-checks are slow; run without -short")
	}
	sequential := lintEverything(t, 1)
	parallel8 := lintEverything(t, 8)
	if !bytes.Equal(sequential, parallel8) {
		t.Errorf("Workers=1 and Workers=8 diverge\n  workers=1: %s\n  workers=8: %s", sequential, parallel8)
	}
}

// TestLoadAllWorkersEquivalence pins the loader half on its own: the
// package list (paths, order) must not depend on the worker count.
func TestLoadAllWorkersEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; run without -short")
	}
	root := moduleRoot(t)
	paths := func(workers int) []string {
		l, err := NewLoader(root)
		if err != nil {
			t.Fatalf("NewLoader: %v", err)
		}
		pkgs, err := l.LoadAll(workers)
		if err != nil {
			t.Fatalf("LoadAll(workers=%d): %v", workers, err)
		}
		out := make([]string, 0, len(pkgs))
		for _, p := range pkgs {
			out = append(out, p.Path)
		}
		return out
	}
	one := paths(1)
	eight := paths(8)
	if !equal(one, eight) {
		t.Errorf("package lists diverge\n  workers=1: %v\n  workers=8: %v", one, eight)
	}
}
