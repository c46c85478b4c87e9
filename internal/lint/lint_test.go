package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// moduleRoot locates the repo root (two levels above this package).
func moduleRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

var (
	loaderOnce sync.Once
	sharedLdr  *Loader
	loaderErr  error
)

// fixtureLoader shares one Loader across tests so the stdlib is
// type-checked once.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	root := moduleRoot(t)
	loaderOnce.Do(func() {
		sharedLdr, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return sharedLdr
}

// loadFixture loads internal/lint/testdata/src/<name>.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	l := fixtureLoader(t)
	pkg, err := l.LoadDir(filepath.Join(l.ModuleRoot, "internal", "lint", "testdata", "src", name))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", name, err)
	}
	return pkg
}

// got renders findings as "base.go:line:check" for exact comparison.
func got(findings []Finding) []string {
	out := make([]string, 0, len(findings))
	for _, f := range findings {
		out = append(out, fmt.Sprintf("%s:%d:%s", path.Base(f.File), f.Line, f.Check))
	}
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFixtures is the per-check contract: each fixture package contains
// known-good and known-bad code plus //cosmo:lint-ignore suppressions,
// and the check must report exactly the bad lines.
func TestFixtures(t *testing.T) {
	cases := []struct {
		name    string // check under test
		fixture string
		config  func(*Config)
		want    []string // "file:line:check", sorted by file then line
	}{
		{
			name:    "seeded-rand",
			fixture: "seededrand",
			want: []string{
				"bad.go:9:seeded-rand",
				"bad.go:10:seeded-rand",
				"bad.go:17:seeded-rand",
				"bad.go:20:seeded-rand",
				// The directive two lines above the call in ignored.go is
				// out of range: suppression is same-line or line-above only.
				"ignored.go:10:seeded-rand",
			},
		},
		{
			name:    "wallclock",
			fixture: "wallclock",
			want: []string{
				"bad.go:9:wallclock",
				"bad.go:13:wallclock",
				"bad.go:17:wallclock",
			},
		},
		{
			name:    "wallclock-allowlisted",
			fixture: "wallclock",
			config: func(c *Config) {
				c.Checks = []string{"wallclock"}
				c.WallclockAllow = append(c.WallclockAllow, "cosmo/internal/lint/testdata/src/wallclock")
			},
			want: nil,
		},
		{
			name:    "mutex-hygiene",
			fixture: "mutexhygiene",
			want: []string{
				"bad.go:14:mutex-hygiene",
			},
		},
		{
			name:    "unbounded-append",
			fixture: "unboundedappend",
			config: func(c *Config) {
				c.Checks = []string{"unbounded-append"}
				c.ServingPaths = []string{"cosmo/internal/lint/testdata/src/unboundedappend"}
			},
			want: []string{
				"bad.go:16:unbounded-append",
				"bad.go:22:unbounded-append",
				"bad.go:26:unbounded-append",
			},
		},
		{
			name:    "unbounded-append-outside-serving",
			fixture: "unboundedappend",
			config: func(c *Config) {
				c.Checks = []string{"unbounded-append"}
				c.ServingPaths = nil // not a serving package: check is silent
			},
			want: nil,
		},
		{
			name:    "dropped-error",
			fixture: "droppederror",
			want: []string{
				"bad.go:12:dropped-error",
				"bad.go:16:dropped-error",
				"bad.go:20:dropped-error",
			},
		},
		{
			name:    "unchecked-narrowing",
			fixture: "uncheckednarrowing",
			want: []string{
				"bad.go:7:unchecked-narrowing",
				"bad.go:11:unchecked-narrowing",
				"bad.go:17:unchecked-narrowing",
				"bad.go:24:unchecked-narrowing",
			},
		},
		{
			name:    "sentinel-compare",
			fixture: "sentinelcompare",
			want: []string{
				"bad.go:13:sentinel-compare",
				"bad.go:17:sentinel-compare",
				"bad.go:22:sentinel-compare",
			},
		},
		{
			name:    "ctx-propagation",
			fixture: "ctxpropagation",
			config: func(c *Config) {
				c.Checks = []string{"ctx-propagation"}
				c.CtxPaths = []string{"cosmo/internal/lint/testdata/src/ctxpropagation"}
			},
			want: []string{
				"bad.go:9:ctx-propagation",
				"bad.go:13:ctx-propagation",
				"bad.go:17:ctx-propagation",
				"bad.go:21:ctx-propagation",
			},
		},
		{
			name:    "ctx-propagation-outside-serving",
			fixture: "ctxpropagation",
			config: func(c *Config) {
				c.Checks = []string{"ctx-propagation"}
				c.CtxPaths = nil // offline code may root its own contexts
			},
			want: nil,
		},
		{
			name:    "alloc-free",
			fixture: "allocfree",
			want: []string{
				"bad.go:11:alloc-free",
				"bad.go:12:alloc-free",
				"bad.go:13:alloc-free",
				"bad.go:14:alloc-free",
				"bad.go:15:alloc-free",
				"bad.go:16:alloc-free",
				"bad.go:17:alloc-free",
				"bad.go:18:alloc-free",
				"bad.go:19:alloc-free",
				"bad.go:20:alloc-free",
				"bad.go:21:alloc-free",
				"bad.go:35:alloc-free",
				"bad.go:36:alloc-free",
				"bad.go:37:alloc-free",
				"bad.go:38:alloc-free",
				"bad.go:39:alloc-free",
				"bad.go:40:alloc-free",
				"bad.go:41:alloc-free",
			},
		},
		{
			name:    "atomic-hygiene",
			fixture: "atomichygiene",
			want: []string{
				"bad.go:18:atomic-hygiene",
			},
		},
		{
			name:    "lint-ignore-directive-validation",
			fixture: "directives",
			want: []string{
				// Malformed directives are findings and suppress nothing.
				"bad.go:8:lint-ignore",
				"bad.go:9:dropped-error",
				"bad.go:11:lint-ignore",
				"bad.go:12:dropped-error",
				"bad.go:16:lint-ignore",
				"bad.go:17:dropped-error",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkg := loadFixture(t, tc.fixture)
			cfg := DefaultConfig()
			if tc.config != nil {
				tc.config(&cfg)
			} else {
				// Default: isolate the check named by the case when it is a
				// real check name.
				for _, c := range AllChecks() {
					if c.Name == tc.name {
						cfg.Checks = []string{tc.name}
					}
				}
			}
			findings := Run([]*Package{pkg}, cfg)
			if g := got(findings); !equal(g, tc.want) {
				t.Errorf("findings mismatch\n got: %v\nwant: %v", g, tc.want)
			}
		})
	}
}

// TestVetCatchesByValueCopies is the oracle for the by-value rules
// mutex-hygiene and atomic-hygiene no longer carry: go vet's copylocks
// reports every copy in testdata/copylocks, which holds those rules'
// bad cases at the lines their want-lists named (receiver, parameter,
// transitive field, dereference copy, range copy).
func TestVetCatchesByValueCopies(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	mod := t.TempDir()
	if err := os.WriteFile(filepath.Join(mod, "go.mod"), []byte("module copylocks\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, pkg := range []string{"atomichygiene", "mutexhygiene"} {
		src, err := os.ReadFile(filepath.Join("testdata", "copylocks", pkg, "bad.go"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(filepath.Join(mod, pkg), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(mod, pkg, "bad.go"), src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command(goTool, "vet", "-copylocks", "./...")
	cmd.Dir = mod
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=", "GOTOOLCHAIN=local")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -copylocks passed the by-value copies:\n%s", out)
	}
	var gotLines []string
	for _, m := range regexp.MustCompile(`(?m)^(\w+)/bad\.go:(\d+):\d+: .*(passes lock by value|copies lock)`).FindAllStringSubmatch(string(out), -1) {
		gotLines = append(gotLines, m[1]+"/bad.go:"+m[2])
	}
	sort.Strings(gotLines)
	want := []string{
		"atomichygiene/bad.go:12",
		"atomichygiene/bad.go:16",
		"atomichygiene/bad.go:21",
		"atomichygiene/bad.go:27",
		"mutexhygiene/bad.go:13",
		"mutexhygiene/bad.go:17",
		"mutexhygiene/bad.go:25",
	}
	if !equal(gotLines, want) {
		t.Errorf("copylocks findings\n got: %v\nwant: %v\ngo vet output:\n%s", gotLines, want, out)
	}
}

// TestLoadDirLoadsModuleImports: a package outside the module walk
// loads on a fresh Loader, with no other package loaded first, and the module
// package it imports is loaded on demand and memoized.
func TestLoadDirLoadsModuleImports(t *testing.T) {
	l, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(filepath.Join(l.ModuleRoot, "internal", "lint", "testdata", "src", "modimport"))
	if err != nil {
		t.Fatalf("LoadDir(modimport): %v", err)
	}
	imports := pkg.Types.Imports()
	if len(imports) != 1 || imports[0].Path() != "cosmo/internal/fnv1a" {
		t.Fatalf("modimport imports %v, want [cosmo/internal/fnv1a]", imports)
	}
	dep, err := l.LoadDir(filepath.Join(l.ModuleRoot, "internal", "fnv1a"))
	if err != nil {
		t.Fatalf("LoadDir(fnv1a): %v", err)
	}
	if dep.Types != imports[0] {
		t.Error("LoadDir(fnv1a) type-checked the package again instead of returning the imported one")
	}
}

// TestLoadDirImportCycle: two packages importing each other fail with
// an error that names the cycle, from either end, instead of recursing.
func TestLoadDirImportCycle(t *testing.T) {
	l, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	const a, b = "cosmo/internal/lint/testdata/src/cycle/a", "cosmo/internal/lint/testdata/src/cycle/b"
	for _, tc := range []struct{ dir, want string }{
		{"a", "import cycle: " + a + " -> " + b + " -> " + a},
		{"b", "import cycle: " + b + " -> " + a + " -> " + b},
	} {
		_, err := l.LoadDir(filepath.Join(l.ModuleRoot, "internal", "lint", "testdata", "src", "cycle", tc.dir))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("LoadDir(cycle/%s) error = %v, want it to contain %q", tc.dir, err, tc.want)
		}
	}
}

// TestFindingString pins the canonical rendering the CI log greps for.
func TestFindingString(t *testing.T) {
	f := Finding{File: "internal/serving/cache.go", Line: 42, Col: 3, Check: "unbounded-append", Message: "grows"}
	want := "internal/serving/cache.go:42: [unbounded-append] grows"
	if f.String() != want {
		t.Errorf("String() = %q, want %q", f.String(), want)
	}
}

// TestFindingJSON pins the machine-readable shape behind -json.
func TestFindingJSON(t *testing.T) {
	data, err := json.Marshal(Finding{File: "a.go", Line: 1, Col: 2, Check: "wallclock", Message: "m"})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"file":"a.go","line":1,"col":2,"check":"wallclock","message":"m"}`
	if string(data) != want {
		t.Errorf("JSON = %s, want %s", data, want)
	}
}

// TestCheckRegistry guards the shipped check set: ten invariant
// checks, deterministic order, non-empty docs.
func TestCheckRegistry(t *testing.T) {
	want := []string{
		"seeded-rand", "wallclock", "mutex-hygiene", "unbounded-append",
		"dropped-error", "unchecked-narrowing",
		"sentinel-compare", "ctx-propagation", "alloc-free", "atomic-hygiene",
	}
	checks := AllChecks()
	if len(checks) != len(want) {
		t.Fatalf("got %d checks, want %d", len(checks), len(want))
	}
	for i, c := range checks {
		if c.Name != want[i] {
			t.Errorf("check %d = %q, want %q", i, c.Name, want[i])
		}
		if c.Doc == "" || c.Run == nil {
			t.Errorf("check %q missing doc or run func", c.Name)
		}
	}
}

// TestModuleLintClean holds the main tree to its own standard: the
// analyzer must exit clean over every package in the module. This is
// the same gate CI runs via `go run ./cmd/cosmo-lint ./...`.
func TestModuleLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; run without -short")
	}
	l := fixtureLoader(t)
	dirs, err := l.ModuleDirs()
	if err != nil {
		t.Fatalf("ModuleDirs: %v", err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			t.Fatalf("LoadDir: %v", err)
		}
		pkgs = append(pkgs, pkg)
	}
	findings := Run(pkgs, DefaultConfig())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
