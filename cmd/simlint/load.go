package main

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
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package. All packages from one load
// call share Fset.
type Package struct {
	// Dir is the package directory as passed to load (cleaned).
	Dir string
	// ImportPath is the package's import path.
	ImportPath string
	// Fset maps AST positions back to file/line.
	Fset *token.FileSet
	// Files are the parsed source files (with comments), in `go list`
	// order.
	Files []*ast.File
	// Types and Info carry the go/types results.
	Types *types.Package
	Info  *types.Info
}

// Filename returns the base name of the file containing pos.
func (p *Package) Filename(pos token.Pos) string {
	return filepath.Base(p.Fset.Position(pos).Filename)
}

// listedPackage is the slice of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
}

// load resolves, parses and type-checks the directories, one package per
// directory, and fails if any of them fails to compile — a linter cannot
// reason about code the compiler rejects. One `go list -export -deps`
// invocation supplies both the build-constraint-filtered file lists of the
// target packages and compiler export data for every dependency (standard
// library included), which the gc importer then reads: the exact
// package-resolution behavior of a real build, offline and under the build
// cache, with no duplicate parsing of the dependency graph.
func load(dirs ...string) ([]*Package, error) {
	if len(dirs) == 0 {
		return nil, fmt.Errorf("no package directories given")
	}
	fset := token.NewFileSet()
	patterns := make([]string, len(dirs))
	for i, d := range dirs {
		patterns[i] = dirPattern(d)
	}
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles"}, patterns...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exports := make(map[string]string) // import path -> export data file
	byDir := make(map[string]*listedPackage)
	dec := json.NewDecoder(&stdout)
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decode go list output: %w", err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		p := lp
		byDir[filepath.Clean(lp.Dir)] = &p
	}

	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var out []*Package
	for _, dir := range dirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		lp := byDir[abs]
		if lp == nil {
			return nil, fmt.Errorf("go list resolved no package for directory %s", dir)
		}
		files := make([]*ast.File, 0, len(lp.GoFiles))
		for _, name := range lp.GoFiles {
			file, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, file)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", lp.ImportPath, err)
		}
		out = append(out, &Package{
			Dir:        filepath.Clean(dir),
			ImportPath: lp.ImportPath,
			Fset:       fset,
			Files:      files,
			Types:      tpkg,
			Info:       info,
		})
	}
	return out, nil
}

// dirPattern shapes a directory argument into the relative-path pattern
// form the go command requires ("internal/netsim" -> "./internal/netsim").
func dirPattern(dir string) string {
	if filepath.IsAbs(dir) || strings.HasPrefix(dir, ".") {
		return dir
	}
	return "./" + filepath.ToSlash(filepath.Clean(dir))
}
