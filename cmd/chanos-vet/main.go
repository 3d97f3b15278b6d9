// chanos-vet runs the repo's custom static analyzers (internal/lint)
// over the module: the determinism and no-shared-memory contracts,
// compiler-enforced. It is the source-level complement to
// cmd/protocheck's protocol-state model checking — protocheck verifies
// the message protocols' state machines, chanos-vet verifies the Go
// code that implements them stays inside the paper's discipline.
//
// Usage:
//
//	chanos-vet [flags] [packages]
//
// With no package patterns it checks ./... from the current module.
// Exit status is 1 if any non-waived finding exists or any waiver is
// unused or malformed (a waiver that suppresses nothing is rot: it
// would silently excuse whatever later lands on its line), 0 otherwise.
//
// Flags:
//
//	-list    print the analyzer suite (name, scope, contract) and exit
//	-json    machine-readable output: findings, waiver inventory,
//	         unused waivers, counts — the scriptable half of the
//	         waiver budget
//	-C dir   run as if launched from dir (the module root)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"chanos/internal/lint"
)

func main() {
	var (
		listOnly = flag.Bool("list", false, "list the analyzer suite and exit")
		jsonOut  = flag.Bool("json", false, "emit findings and the waiver inventory as JSON")
		chdir    = flag.String("C", ".", "module directory to analyze")
	)
	flag.Parse()

	analyzers := lint.All()

	if *listOnly {
		if *jsonOut {
			type entry struct {
				Name string `json:"name"`
				Doc  string `json:"doc"`
			}
			var es []entry
			for _, a := range analyzers {
				es = append(es, entry{a.Name, a.Doc})
			}
			emitJSON(map[string]any{"analyzers": es})
			return
		}
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(*chdir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chanos-vet: %v\n", err)
		os.Exit(2)
	}
	res := lint.Run(pkgs, analyzers)

	live := res.Live()
	waived := res.Waived()
	unused := res.Unused()
	sortFindings(live)
	sortFindings(waived)

	if *jsonOut {
		emitJSON(map[string]any{
			"findings":       ensure(live),
			"waived":         ensure(waived),
			"unused_waivers": unused,
			"counts": map[string]int{
				"findings":       len(live),
				"waivers":        len(waived),
				"unused_waivers": len(unused),
			},
		})
		if len(live) > 0 || len(unused) > 0 {
			os.Exit(1)
		}
		return
	}

	for _, f := range live {
		fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	}
	if len(waived) > 0 {
		fmt.Printf("chanos-vet: %d waiver(s) in effect:\n", len(waived))
		for _, f := range waived {
			fmt.Printf("  %s:%d: [%s] %s\n", f.File, f.Line, f.Analyzer, f.Justification)
		}
	}
	for _, w := range unused {
		reason := "suppresses nothing (stale? fix or remove)"
		if w.Malformed != "" {
			reason = w.Malformed
		}
		fmt.Printf("%s:%d: //chanos:allow %s: %s\n", w.File, w.Line, w.Analyzer, reason)
	}
	if len(live) > 0 || len(unused) > 0 {
		fmt.Printf("chanos-vet: %d non-waived finding(s), %d unused waiver(s)\n", len(live), len(unused))
		os.Exit(1)
	}
	fmt.Printf("chanos-vet: ok (%d packages, %d findings, %d waivers)\n", len(pkgs), len(live), len(waived))
}

func sortFindings(fs []lint.Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].File != fs[j].File {
			return fs[i].File < fs[j].File
		}
		if fs[i].Line != fs[j].Line {
			return fs[i].Line < fs[j].Line
		}
		return fs[i].Analyzer < fs[j].Analyzer
	})
}

// ensure keeps empty slices as [] rather than null in JSON output.
func ensure(fs []lint.Finding) []lint.Finding {
	if fs == nil {
		return []lint.Finding{}
	}
	return fs
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(os.Stderr, "chanos-vet: %v\n", err)
		os.Exit(2)
	}
}
