// Package lint is chanos-vet's analysis engine: four custom static
// analyzers that make the simulation's two load-bearing contracts —
// determinism-from-seed and no-shared-mutable-memory — machine-checked
// at the source level instead of reviewed-for.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is self-contained on the standard
// library: packages are parsed with go/parser and type-checked with
// go/types over the stdlib source importer, so the tool builds with
// zero module dependencies, exactly like the rest of the tree.
//
// The four analyzers and the contracts they pin:
//
//   - mapiter: no raw `range` over a map in schedule-affecting
//     packages — Go randomizes map order, so any such loop on a live
//     path perturbs the event schedule between same-seed runs (the
//     PR 8 audit bug class). Rewrite through internal/sim/detmap or
//     waive the line with the reason its order cannot matter.
//   - wallclock: no time.Now/timers and no unseeded math/rand under
//     internal/ and examples/ — the simulated clock and the engine's
//     seeded RNG are the only time and randomness sources.
//   - sharedstate: no sync.Mutex/RWMutex, no sync/atomic, no raw `go`
//     statements in shard-owned handler code — the paper's
//     no-shared-memory rule, enforced outside the allowlisted
//     engine/device layer.
//   - msgownership: no writes to a slice/pointer/map payload after it
//     has been sent on a channel — ownership transfers at the send.
//     This is the static half of strict mode's runtime copy checker.
//
// A finding is suppressible only by an inline waiver comment,
//
//	//chanos:allow <analyzer> <justification>
//
// on the flagged line or the line directly above it. The justification
// is mandatory; chanos-vet counts and prints every waiver so the
// inventory stays visible, and fails on a waiver that no longer
// suppresses anything.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// An Analyzer describes one analysis: a name findings and waivers key
// on, a doc string, and a Run function applied once per package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer   *Analyzer
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	ImportPath string
	Info       *types.Info

	diags *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// IsTestFile reports whether the file containing pos is a _test.go
// file. The analyzers skip test files: tests run off the simulated
// clock by construction (the harness, not the machine, is in charge),
// and their map ranges assert over results rather than drive the
// schedule.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// A Finding is one diagnostic, resolved against waivers.
type Finding struct {
	Analyzer      string         `json:"analyzer"`
	Pos           token.Position `json:"-"`
	File          string         `json:"file"`
	Line          int            `json:"line"`
	Col           int            `json:"col"`
	Message       string         `json:"message"`
	Waived        bool           `json:"waived"`
	Justification string         `json:"justification,omitempty"`
}

// A Waiver is one //chanos:allow comment.
type Waiver struct {
	Analyzer      string         `json:"analyzer"`
	Pos           token.Position `json:"-"`
	File          string         `json:"file"`
	Line          int            `json:"line"`
	Justification string         `json:"justification"`
	Used          bool           `json:"used"`
	Malformed     string         `json:"malformed,omitempty"`
}

var waiverRe = regexp.MustCompile(`^//chanos:allow\s+(\S+)\s*(.*)$`)

// collectWaivers scans a file's comments for //chanos:allow directives.
func collectWaivers(fset *token.FileSet, f *ast.File, analyzers map[string]bool) []*Waiver {
	var ws []*Waiver
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := waiverRe.FindStringSubmatch(c.Text)
			if m == nil {
				if strings.HasPrefix(c.Text, "//chanos:allow") {
					ws = append(ws, &Waiver{
						Pos:       fset.Position(c.Pos()),
						Malformed: "missing analyzer name",
					})
				}
				continue
			}
			w := &Waiver{
				Analyzer:      m[1],
				Pos:           fset.Position(c.Pos()),
				Justification: strings.TrimSpace(m[2]),
			}
			if !analyzers[w.Analyzer] {
				w.Malformed = fmt.Sprintf("unknown analyzer %q", w.Analyzer)
			} else if w.Justification == "" {
				w.Malformed = "missing justification (//chanos:allow <analyzer> <why>)"
			}
			ws = append(ws, w)
		}
	}
	for _, w := range ws {
		w.File, w.Line = w.Pos.Filename, w.Pos.Line
	}
	return ws
}

// Result is the outcome of running analyzers over a set of packages.
type Result struct {
	Findings []Finding // all findings, waived ones marked
	Waivers  []*Waiver // every //chanos:allow in the analyzed files
}

// Live returns the findings not suppressed by a waiver.
func (r *Result) Live() []Finding {
	var live []Finding
	for _, f := range r.Findings {
		if !f.Waived {
			live = append(live, f)
		}
	}
	return live
}

// Waived returns the suppressed findings.
func (r *Result) Waived() []Finding {
	var ws []Finding
	for _, f := range r.Findings {
		if f.Waived {
			ws = append(ws, f)
		}
	}
	return ws
}

// Unused returns waivers that suppressed nothing (including malformed
// ones, which can never suppress).
func (r *Result) Unused() []*Waiver {
	var u []*Waiver
	for _, w := range r.Waivers {
		if !w.Used {
			u = append(u, w)
		}
	}
	return u
}

// Run applies each analyzer to each package it is scoped to (see
// Applies) and resolves waivers. Packages must come from Load (or the
// fixture loader in the tests) so their type information is complete.
func Run(pkgs []*Pkg, analyzers []*Analyzer) *Result {
	names := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		names[a.Name] = true
	}
	res := &Result{}
	for _, pkg := range pkgs {
		var diags []Finding
		for _, a := range analyzers {
			if !Applies(a, pkg.ImportPath) {
				continue
			}
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				ImportPath: pkg.ImportPath,
				Info:       pkg.Info,
				diags:      &diags,
			}
			a.Run(pass)
		}
		var waivers []*Waiver
		for _, f := range pkg.Files {
			waivers = append(waivers, collectWaivers(pkg.Fset, f, names)...)
		}
		resolve(diags, waivers)
		for i := range diags {
			diags[i].File = diags[i].Pos.Filename
			diags[i].Line = diags[i].Pos.Line
			diags[i].Col = diags[i].Pos.Column
		}
		res.Findings = append(res.Findings, diags...)
		res.Waivers = append(res.Waivers, waivers...)
	}
	return res
}

// resolve marks findings waived when a well-formed waiver for the same
// analyzer sits on the finding's line or the line directly above it in
// the same file.
func resolve(diags []Finding, waivers []*Waiver) {
	for i := range diags {
		d := &diags[i]
		for _, w := range waivers {
			if w.Malformed != "" || w.Analyzer != d.Analyzer {
				continue
			}
			if w.Pos.Filename != d.Pos.Filename {
				continue
			}
			if w.Pos.Line == d.Pos.Line || w.Pos.Line == d.Pos.Line-1 {
				d.Waived = true
				d.Justification = w.Justification
				w.Used = true
			}
		}
	}
}
