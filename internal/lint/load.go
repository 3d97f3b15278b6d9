package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
)

// A Pkg is one parsed, type-checked package ready for analysis.
type Pkg struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Load enumerates the packages matching the go-list patterns in the
// module rooted at root and type-checks each from source. Only
// non-test Go files are analyzed: the analyzers' contracts govern the
// machine's live paths, and test files run off the harness's clock by
// construction (Pass.IsTestFile documents the same rule for fixture
// files that mix both).
func Load(root string, patterns ...string) ([]*Pkg, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	metas, err := goList(root, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var pkgs []*Pkg
	for _, m := range metas {
		if len(m.GoFiles) == 0 {
			continue
		}
		var names []string
		for _, f := range m.GoFiles {
			names = append(names, filepath.Join(m.Dir, f))
		}
		pkg, err := check(fset, imp, m.ImportPath, m.Dir, names)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func check(fset *token.FileSet, imp types.Importer, importPath, dir string, filenames []string) (*Pkg, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", importPath, err)
	}
	return &Pkg{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

type listMeta struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

func goList(root string, patterns []string) ([]listMeta, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, errb.String())
	}
	dec := json.NewDecoder(&out)
	var metas []listMeta
	for {
		var m listMeta
		if err := dec.Decode(&m); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		metas = append(metas, m)
	}
	return metas, nil
}
