package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// sharedLoader is one loader per test binary so the stdlib source
// importer's cache is reused across golden tests.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loader, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loader
}

// loadTestPkg loads one package directory under testdata. The import
// path is synthetic and doubles as the module path for the pass, so
// same-package calls count as module calls in the ctxthread check.
func loadTestPkg(t *testing.T, rel string) *Package {
	t.Helper()
	l := testLoader(t)
	dir, err := filepath.Abs(filepath.Join("testdata", rel))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir, "gridvolint.test/"+filepath.ToSlash(rel))
	if err != nil {
		t.Fatalf("load %s: %v", rel, err)
	}
	return pkg
}

// wantRe matches golden expectations: a `// want "substr"` comment
// expects a diagnostic on its own line whose message contains substr;
// `// want-above "substr"` expects it on the line above (used where the
// finding lands on a comment line that cannot hold a second comment).
var wantRe = regexp.MustCompile(`// want(-above)? "([^"]+)"`)

// expectations scans the source files of a package for want comments,
// returning file:line -> expected message substrings.
func expectations(t *testing.T, pkg *Package) map[string][]string {
	t.Helper()
	want := map[string][]string{}
	ents, err := os.ReadDir(pkg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(pkg.Dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				ln := i + 1
				if m[1] == "-above" {
					ln--
				}
				key := fmt.Sprintf("%s:%d", path, ln)
				want[key] = append(want[key], m[2])
			}
		}
	}
	return want
}

// golden runs one check over one testdata package and asserts the
// diagnostics match the want comments exactly: every expectation is
// produced and nothing else is.
func golden(t *testing.T, check *Check, rel string) {
	t.Helper()
	goldenChecks(t, []*Check{check}, rel)
}

// goldenChecks is golden for a list of checks; nil runs every check,
// which is the one mode that reports stale suppressions.
func goldenChecks(t *testing.T, checks []*Check, rel string) {
	t.Helper()
	pkg := loadTestPkg(t, rel)
	diags := RunChecks(testLoader(t).Fset, pkg.Path, []*Package{pkg}, checks)
	want := expectations(t, pkg)

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		exps := want[key]
		matched := -1
		for i, exp := range exps {
			if strings.Contains(d.Message, exp) {
				matched = i
				break
			}
		}
		if matched == -1 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		want[key] = append(exps[:matched], exps[matched+1:]...)
		if len(want[key]) == 0 {
			delete(want, key)
		}
	}
	var missed []string
	for key, exps := range want {
		for _, exp := range exps {
			missed = append(missed, fmt.Sprintf("%s: no diagnostic containing %q", key, exp))
		}
	}
	sort.Strings(missed)
	for _, m := range missed {
		t.Errorf("missing expected diagnostic: %s", m)
	}
}

func TestMaporderGolden(t *testing.T)  { golden(t, Maporder, "src/maporder") }
func TestFloatcmpGolden(t *testing.T)  { golden(t, Floatcmp, "src/floatcmp") }
func TestRecipmulGolden(t *testing.T)  { golden(t, Recipmul, "src/recipmul") }
func TestCtxthreadGolden(t *testing.T) { golden(t, Ctxthread, "src/ctxthread/assign") }
func TestNoclockGolden(t *testing.T)   { golden(t, Noclock, "src/noclock") }

func TestRandsourceGolden(t *testing.T) { golden(t, Randsource, "src/randsource") }

func TestDensehotGolden(t *testing.T) { golden(t, Densehot, "src/densehot/trust") }

func TestLockfieldGolden(t *testing.T)  { golden(t, Lockfield, "src/lockfield") }
func TestGoleakGolden(t *testing.T)     { golden(t, Goleak, "src/goleak") }
func TestLockcallGolden(t *testing.T)   { golden(t, Lockcall, "src/lockcall") }
func TestFptaintGolden(t *testing.T)    { golden(t, Fptaint, "src/fptaint") }
func TestAllocguardGolden(t *testing.T) { golden(t, Allocguard, "src/allocguard") }

// TestFptaintXrandExempt: a package whose import path ends in /xrand is
// the sanctioned deterministic randomness source; its values never
// taint fingerprints.
func TestFptaintXrandExempt(t *testing.T) {
	golden(t, Fptaint, "src/fptaint_allowed/xrand")
}

// TestDensehotSkipsOtherPackages: the same dense constructions outside
// the trust/reputation hot-path packages produce nothing.
func TestDensehotSkipsOtherPackages(t *testing.T) {
	golden(t, Densehot, "src/densehot/other")
}

// TestCtxthreadSkipsOtherPackages: the same iterating shape outside the
// solver-core package names produces nothing.
func TestCtxthreadSkipsOtherPackages(t *testing.T) {
	golden(t, Ctxthread, "src/ctxthread/other")
}

// TestNoclockAllowlist: wall-clock reads in the allowlisted service
// packages are fine.
func TestNoclockAllowlist(t *testing.T) {
	golden(t, Noclock, "src/noclock_allowed/server")
}

// TestRandsourceXrandExempt: internal/xrand owns raw generator state.
func TestRandsourceXrandExempt(t *testing.T) {
	golden(t, Randsource, "src/randsource_allowed/xrand")
}

// TestSuppression exercises the //gridvolint:ignore machinery: inline
// and declaration-scope suppression, malformed directives surfacing as
// diagnostics, wrong-check and out-of-range directives not suppressing
// and, since every check runs, being reported as stale.
func TestSuppression(t *testing.T) {
	goldenChecks(t, nil, "src/suppress")
}

// TestSuppressionDeclScopeEdges pins the decl-scope corner cases:
// nested declarations and closures inside a suppressed function stay
// covered, a directive on a receiver's type declaration does not leak
// into the type's methods (while one on the method itself does), a
// grouped declaration is covered as a unit, and plain line scope still
// stops after one line.
func TestSuppressionDeclScopeEdges(t *testing.T) {
	goldenChecks(t, nil, "src/suppress_edge")
}

// TestStaleSuppressionSubsetRun: a subset run cannot tell a stale
// directive from one whose check was left out, so over the suppression
// testdata it must report exactly the full run's findings minus the
// stale ones, even though the checks those directives name (floatcmp,
// maporder) are in the subset.
func TestStaleSuppressionSubsetRun(t *testing.T) {
	for _, rel := range []string{"src/suppress", "src/suppress_edge"} {
		pkg := loadTestPkg(t, rel)
		fset := testLoader(t).Fset
		var want []Diagnostic
		stale := 0
		for _, d := range RunChecks(fset, pkg.Path, []*Package{pkg}, nil) {
			if d.Check == "ignore" && strings.HasPrefix(d.Message, "stale suppression") {
				stale++
				continue
			}
			want = append(want, d)
		}
		if stale == 0 {
			t.Fatalf("%s: full run reported no stale suppression to leave out", rel)
		}
		got := RunChecks(fset, pkg.Path, []*Package{pkg}, []*Check{Floatcmp, Maporder})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: subset run\n%v\nwant the full run without stale findings\n%v", rel, got, want)
		}
	}
}

// TestRegressionCorpus pins the crasher-style corpus: minimal
// reproductions of real violations fixed in this tree, each detected by
// exactly the intended check.
func TestRegressionCorpus(t *testing.T) {
	for rel, check := range map[string]*Check{
		"regress/recipmul":   Recipmul,
		"regress/ctxthread":  Ctxthread,
		"regress/maporder":   Maporder,
		"regress/densehot":   Densehot,
		"regress/allocguard": Allocguard,
	} {
		t.Run(rel, func(t *testing.T) { golden(t, check, rel) })
	}
}

// TestRegressionCorpusSingleCheck asserts corpus findings come from the
// intended check only: running the full suite on a corpus package must
// not add findings of other checks (suppressions and exemptions in the
// snippets keep them single-voiced).
func TestRegressionCorpusSingleCheck(t *testing.T) {
	for rel, check := range map[string]*Check{
		"regress/recipmul":   Recipmul,
		"regress/ctxthread":  Ctxthread,
		"regress/maporder":   Maporder,
		"regress/densehot":   Densehot,
		"regress/allocguard": Allocguard,
	} {
		pkg := loadTestPkg(t, rel)
		diags := RunChecks(testLoader(t).Fset, pkg.Path, []*Package{pkg}, nil)
		for _, d := range diags {
			if d.Check != check.Name {
				t.Errorf("%s: stray %s finding: %s", rel, d.Check, d)
			}
		}
	}
}

// TestTreeClean is the repo-stays-clean guarantee in test form: the
// full module must produce zero diagnostics (CI also runs the
// gridvolint binary, but this keeps `go test ./...` sufficient).
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module; skipped in -short")
	}
	l := testLoader(t)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("LoadAll found only %d packages; loader is missing the tree", len(pkgs))
	}
	diags := RunChecks(l.Fset, l.ModulePath, pkgs, nil)
	for _, d := range diags {
		t.Errorf("tree not lint-clean: %s", d)
	}
}

// TestByName covers the catalog lookup.
func TestByName(t *testing.T) {
	for _, c := range All {
		if ByName(c.Name) != c {
			t.Errorf("ByName(%q) did not return the %s check", c.Name, c.Name)
		}
	}
	if ByName("nosuchcheck") != nil {
		t.Error("ByName accepted an unknown name")
	}
}

// TestDiagnosticString pins the canonical output format.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{File: "a/b.go", Line: 12, Col: 3, Check: "maporder", Message: "boom"}
	const want = "a/b.go:12:3  [maporder]  boom"
	if got := d.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
