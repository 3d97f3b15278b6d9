package lint

// Golden tests: each analyzer runs over a fixture package under
// testdata/src/<analyzer>/ whose files carry `// want "regex"` marks
// on the lines expected to produce a live finding. The harness fails
// on any unexpected finding, any unmatched want, any message that
// does not match its regex, and any waiver that suppresses nothing —
// so every fixture proves both directions: the seeded violations
// flag, and the clean/waived shapes stay quiet.

import (
	"fmt"
	"go/importer"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// byName returns the named analyzer, or nil.
func byName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// loadDir parses and type-checks the single package in dir (every .go
// file), labeling it with importPath. Fixture packages live under
// testdata/, where the go tool will not list them for Load.
func loadDir(dir, importPath string) (*Pkg, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	if len(matches) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	return check(fset, imp, importPath, dir, matches)
}

// wantRe matches `// want "regex"` and `// want ` + backquoted regex.
var wantRe = regexp.MustCompile("// want (?:\"([^\"]+)\"|`([^`]+)`)")

type wantMark struct {
	re      *regexp.Regexp
	matched bool
}

// runGolden loads the fixture in testdata/src/<dir> under importPath,
// runs the single named analyzer, and checks live findings against
// the fixture's want marks. It returns the Result for waiver
// assertions.
func runGolden(t *testing.T, analyzer, dir, importPath string) *Result {
	t.Helper()
	a := byName(analyzer)
	if a == nil {
		t.Fatalf("no analyzer named %q", analyzer)
	}
	if !Applies(a, importPath) {
		t.Fatalf("fixture import path %s is outside %s's scope; the test would vacuously pass", importPath, analyzer)
	}
	pkg, err := loadDir(filepath.Join("testdata", "src", dir), importPath)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	res := Run([]*Pkg{pkg}, []*Analyzer{a})

	wants := map[string]*wantMark{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				expr := m[1]
				if expr == "" {
					expr = m[2]
				}
				re, err := regexp.Compile(expr)
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", expr, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants[fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)] = &wantMark{re: re}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want marks; it cannot prove the analyzer fires", dir)
	}

	for _, f := range res.Live() {
		key := fmt.Sprintf("%s:%d", filepath.Base(f.File), f.Line)
		w := wants[key]
		if w == nil {
			t.Errorf("%s: unexpected finding at %s: %s", analyzer, key, f.Message)
			continue
		}
		if !w.re.MatchString(f.Message) {
			t.Errorf("%s: finding at %s does not match want %q:\n  %s", analyzer, key, w.re, f.Message)
		}
		w.matched = true
	}
	for key, w := range wants {
		if !w.matched {
			t.Errorf("%s: expected a finding at %s matching %q; got none", analyzer, key, w.re)
		}
	}
	return res
}

// assertWaivers checks the fixture's waived count and that no waiver
// is dangling (a dangling fixture waiver means suppression broke).
func assertWaivers(t *testing.T, res *Result, nWaived int) {
	t.Helper()
	if got := len(res.Waived()); got != nWaived {
		t.Errorf("waived findings = %d, want %d", got, nWaived)
	}
	for _, w := range res.Unused() {
		t.Errorf("waiver at %s:%d suppresses nothing (malformed: %q)", w.File, w.Line, w.Malformed)
	}
}

func TestMapIterGolden(t *testing.T) {
	res := runGolden(t, "mapiter", "mapiter", "chanos/internal/store/fx_mapiter")
	assertWaivers(t, res, 1)
}

func TestWallClockGolden(t *testing.T) {
	res := runGolden(t, "wallclock", "wallclock", "chanos/internal/fx_wallclock")
	assertWaivers(t, res, 1)
}

func TestSharedStateGolden(t *testing.T) {
	res := runGolden(t, "sharedstate", "sharedstate", "chanos/internal/store/fx_sharedstate")
	assertWaivers(t, res, 1)
}

func TestMsgOwnershipGolden(t *testing.T) {
	res := runGolden(t, "msgownership", "msgownership", "chanos/internal/store/fx_msgownership")
	assertWaivers(t, res, 1)
}

// TestScope pins the scoping tables: where each contract is and is not
// enforced. The engine/device/baseline carve-outs are deliberate —
// see scope.go — and a silent widening or narrowing of either list
// should fail a test, not a code review.
func TestScope(t *testing.T) {
	cases := []struct {
		analyzer string
		path     string
		want     bool
	}{
		{"mapiter", "chanos/internal/store", true},
		{"mapiter", "chanos/internal/exp", true},
		{"mapiter", "chanos/cmd/chanos-vet", true},
		{"mapiter", "chanos/internal/stats", false}, // pure math, no engine interaction
		{"mapiter", "chanos/internal/lint", false},  // host-side tool

		{"wallclock", "chanos/internal/stats", true},
		{"wallclock", "chanos/examples/hello", true},
		{"wallclock", "chanos", true},
		{"wallclock", "chanos/cmd/chanos-vet", false}, // binaries may report wall time

		{"sharedstate", "chanos/internal/store", true},
		{"sharedstate", "chanos/internal/sim", false},      // the engine is the allowed home of goroutines
		{"sharedstate", "chanos/internal/core", true},      // coroutine threads: no raw goroutine, no lock
		{"sharedstate", "chanos/internal/baseline", false}, // the lock-based foil exists to use locks

		{"msgownership", "chanos/internal/store", true},
		{"msgownership", "chanos/internal/sim", true}, // engine may spawn, but still may not mutate sent payloads
		{"msgownership", "chanos/internal/baseline", false},
	}
	for _, c := range cases {
		a := byName(c.analyzer)
		if a == nil {
			t.Fatalf("no analyzer named %q", c.analyzer)
		}
		if got := Applies(a, c.path); got != c.want {
			t.Errorf("Applies(%s, %s) = %v, want %v", c.analyzer, c.path, got, c.want)
		}
	}
}

// TestWaiverHygiene pins the waiver-comment grammar: a missing
// justification or an unknown analyzer name makes the waiver
// malformed, and a malformed waiver must never suppress a finding.
func TestWaiverHygiene(t *testing.T) {
	res := runGolden(t, "mapiter", "waiverbad", "chanos/internal/store/fx_waiverbad")
	if len(res.Waived()) != 0 {
		t.Errorf("malformed waivers suppressed %d finding(s); they must suppress none", len(res.Waived()))
	}
	malformed := 0
	for _, w := range res.Waivers {
		if w.Malformed != "" {
			malformed++
		}
	}
	if malformed != 2 {
		t.Errorf("malformed waivers = %d, want 2 (missing justification, unknown analyzer)", malformed)
	}
}
