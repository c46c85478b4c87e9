package main

import (
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cosmo/internal/lint"
)

// root is the module root, two levels above this package.
const root = "../.."

// paths lists the loaded packages' import paths, sorted.
func paths(pkgs []*lint.Package) []string {
	out := make([]string, len(pkgs))
	for i, pkg := range pkgs {
		out[i] = pkg.Path
	}
	slices.Sort(out)
	return out
}

// goList is the go tool's own list of the packages ./... names in dir,
// sorted.
func goList(t *testing.T, dir string) []string {
	t.Helper()
	cmd := exec.Command("go", "list", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list ./... in %s: %v", dir, err)
	}
	list := strings.Fields(string(out))
	slices.Sort(list)
	return list
}

// TestResolve: each pattern form, relative to -C, loads the packages
// the go tool lists for it.
func TestResolve(t *testing.T) {
	all := goList(t, root)
	internal := goList(t, filepath.Join(root, "internal"))
	const fnv = "cosmo/internal/fnv1a"
	for _, p := range all {
		if strings.HasPrefix(p, "cosmo/bench") || strings.Contains(p, "/testdata/") {
			t.Errorf("./... names %s: the nested bench module and testdata are not part of it", p)
		}
	}
	if !slices.Contains(internal, fnv) || len(internal) == len(all) {
		t.Fatalf("./... = %v: want %s among its packages, and packages outside internal/", all, fnv)
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
		{name: "fixture outside the walk", chdir: ".", patterns: []string{"./internal/lint/testdata/src/wallclock"}, want: []string{"cosmo/internal/lint/testdata/src/wallclock"}},
		{name: "-C subdir", chdir: "internal", patterns: []string{"./fnv1a"}, want: []string{fnv}},
		{name: "-C subdir, module", chdir: "internal", patterns: []string{"./..."}, want: internal},
		{name: "deduplicated", chdir: ".", patterns: []string{"./internal/fnv1a", "./internal/fnv1a/..."}, want: []string{fnv}},
		{name: "unknown dir", chdir: ".", patterns: []string{"./nonexistent"}, err: "nonexistent: directory not found"},
		{name: "dir without Go files", chdir: ".", patterns: []string{"./internal/lint/testdata/src/cycle"}, err: "no Go files"},
		{name: "empty subtree", chdir: ".", patterns: []string{"./internal/lint/testdata/..."}, err: "./internal/lint/testdata/... matches no packages"},
		{name: "unknown subtree", chdir: ".", patterns: []string{"./nonexistent/..."}, err: "pattern ./nonexistent/..."},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pkgs, err := lint.Load(filepath.Join(root, tc.chdir), tc.patterns...)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("Load(%q) = %v, %v; want error containing %q", tc.patterns, paths(pkgs), err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := paths(pkgs); !slices.Equal(got, tc.want) {
				t.Errorf("Load(%q)\n got: %v\nwant: %v", tc.patterns, got, tc.want)
			}
		})
	}
}

// TestLoadOnePackage: linting one package returns that package alone.
func TestLoadOnePackage(t *testing.T) {
	pkgs, err := lint.Load(root, "./internal/fnv1a")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "cosmo/internal/fnv1a" {
		t.Fatalf("Load(./internal/fnv1a) = %v, want cosmo/internal/fnv1a alone", paths(pkgs))
	}
}

// TestExitStatus: a clean package exits 0 and a package that cannot be
// loaded (an import cycle) exits 2.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		pattern string
		want    int
	}{
		{"./internal/fnv1a", 0},
		{"./internal/lint/testdata/src/cycle/a", 2},
	} {
		if got := run([]string{"-C", root, tc.pattern}); got != tc.want {
			t.Errorf("cosmo-lint %s exited %d, want %d", tc.pattern, got, tc.want)
		}
	}
}
