package main

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cosmo/internal/lint"
)

// TestResolve: each pattern form maps to the directories it names,
// relative to -C, without loading a package.
func TestResolve(t *testing.T) {
	root, err := findModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	all, err := loader.ModuleDirs()
	if err != nil {
		t.Fatal(err)
	}
	var internal []string
	for _, d := range all {
		if strings.HasPrefix(d, filepath.Join(root, "internal")+string(filepath.Separator)) {
			internal = append(internal, d)
		}
	}
	fnv := filepath.Join(root, "internal", "fnv1a")
	fixture := filepath.Join(root, "internal", "lint", "testdata", "src", "wallclock")
	if !slices.Contains(internal, fnv) || len(internal) == len(all) {
		t.Fatalf("module walk %v: want internal/fnv1a among its dirs, and dirs outside internal/", all)
	}
	for _, tc := range []struct {
		name     string
		chdir    string // relative to the module root
		patterns []string
		want     []string
		err      string
	}{
		{name: "no pattern", chdir: ".", want: all},
		{name: "module", chdir: ".", patterns: []string{"./..."}, want: all},
		{name: "subtree", chdir: ".", patterns: []string{"./internal/..."}, want: internal},
		{name: "one dir", chdir: ".", patterns: []string{"./internal/fnv1a"}, want: []string{fnv}},
		{name: "fixture outside the walk", chdir: ".", patterns: []string{"./internal/lint/testdata/src/wallclock"}, want: []string{fixture}},
		{name: "-C subdir", chdir: "internal", patterns: []string{"./fnv1a"}, want: []string{fnv}},
		{name: "-C subdir, module", chdir: "internal", patterns: []string{"./..."}, want: all},
		{name: "deduplicated", chdir: ".", patterns: []string{"./internal/fnv1a", "./internal/fnv1a/..."}, want: []string{fnv}},
		{name: "unknown dir", chdir: ".", patterns: []string{"./nonexistent"}, err: `pattern "./nonexistent" matches no packages`},
		{name: "dir without Go files", chdir: ".", patterns: []string{"./internal/lint/testdata/src/cycle"}, err: "matches no packages"},
		{name: "empty subtree", chdir: ".", patterns: []string{"./internal/lint/testdata/..."}, err: `pattern "./internal/lint/testdata/..." matches no packages`},
		{name: "unknown subtree", chdir: ".", patterns: []string{"./nonexistent/..."}, err: "matches no packages"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dirs, err := resolve(loader, filepath.Join(root, tc.chdir), tc.patterns)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("resolve(%q) = %v, %v; want error containing %q", tc.patterns, dirs, err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(dirs, tc.want) {
				t.Errorf("resolve(%q)\n got: %v\nwant: %v", tc.patterns, dirs, tc.want)
			}
		})
	}
}

// TestLoadOnePackage: linting one package returns that package alone.
func TestLoadOnePackage(t *testing.T) {
	pkgs, err := load("../..", []string{"./internal/fnv1a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "cosmo/internal/fnv1a" {
		t.Fatalf("load(./internal/fnv1a) = %d packages, want cosmo/internal/fnv1a alone", len(pkgs))
	}
}
