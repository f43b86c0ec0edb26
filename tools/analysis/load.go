package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
)

// UnitKind distinguishes the three compilation units a Go package can
// contribute: its library files, the library+in-package-test merge, and
// the external _test package.
type UnitKind int

const (
	// Lib is the package's non-test files.
	Lib UnitKind = iota
	// Test is the package's library files merged with its in-package
	// _test.go files (the package as the test binary compiles it).
	// Diagnostics are restricted to the test files — the library files
	// are re-checked only for type information.
	Test
	// XTest is the external test package (package foo_test).
	XTest
)

// Unit is one type-checked compilation unit.
type Unit struct {
	// ImportPath is the unit's package path; XTest units carry the
	// conventional "_test" suffix.
	ImportPath string
	// Kind says which of the package's file sets this unit covers.
	Kind UnitKind
	// Files are the parsed syntax trees, in go list order.
	Files []*ast.File
	// Pkg and Info are the type-check results.
	Pkg  *types.Package
	Info *types.Info

	reportable map[string]bool
}

// Reportable says whether diagnostics at pos belong to this unit: a Test
// unit re-checks library files for type information but only its
// _test.go files are reportable, so findings in shared files are not
// duplicated across units.
func (u *Unit) Reportable(fset *token.FileSet, pos token.Pos) bool {
	return u.reportable[fset.Position(pos).Filename]
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir          string
	ImportPath   string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// Load enumerates the packages matching patterns (relative to dir, via
// `go list`), parses them, and type-checks every unit from source using
// the standard library's source importer. It is the offline stand-in for
// golang.org/x/tools/go/packages: all dependencies — including the
// standard library — are resolved from source, so no export data, build
// cache, or network is required. Cgo is disabled for the duration; the
// analyzed tree is pure Go and the cgo fallbacks of net et al.
// type-check identically.
func Load(dir string, patterns []string) (*token.FileSet, []*Unit, error) {
	build.Default.CgoEnabled = false

	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var units []*Unit
	for _, p := range pkgs {
		lib := absFiles(p.Dir, p.GoFiles)
		tests := absFiles(p.Dir, p.TestGoFiles)
		xtests := absFiles(p.Dir, p.XTestGoFiles)
		if len(lib) > 0 {
			u, err := check(fset, imp, p.ImportPath, Lib, lib, lib)
			if err != nil {
				return nil, nil, err
			}
			units = append(units, u)
		}
		if len(tests) > 0 {
			u, err := check(fset, imp, p.ImportPath, Test, append(append([]string{}, lib...), tests...), tests)
			if err != nil {
				return nil, nil, err
			}
			units = append(units, u)
		}
		if len(xtests) > 0 {
			u, err := check(fset, imp, p.ImportPath+"_test", XTest, xtests, xtests)
			if err != nil {
				return nil, nil, err
			}
			units = append(units, u)
		}
	}
	return fset, units, nil
}

// LoadFiles type-checks files as the library unit of package path, the
// way Load checks each listed package; the golden-test harness
// (analysistest) loads its testdata packages through it.
func LoadFiles(path string, files []string) (*token.FileSet, *Unit, error) {
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	u, err := check(fset, importer.ForCompiler(fset, "source", nil), path, Lib, files, files)
	return fset, u, err
}

// check parses and type-checks one unit. reportable lists the files
// diagnostics may target (a subset of files).
func check(fset *token.FileSet, imp types.Importer, path string, kind UnitKind, files, reportable []string) (*Unit, error) {
	var syntax []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", f, err)
		}
		syntax = append(syntax, af)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	rep := make(map[string]bool, len(reportable))
	for _, f := range reportable {
		rep[f] = true
	}
	return &Unit{ImportPath: path, Kind: kind, Files: syntax, Pkg: pkg, Info: info, reportable: rep}, nil
}

func absFiles(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = filepath.Join(dir, n)
	}
	return out
}

// Finding is one diagnostic resolved to a printable position.
type Finding struct {
	Analyzer string
	Position token.Position
	Message  string
}

// Run applies every analyzer to every unit (subject to filter; a nil
// filter applies everything everywhere) and returns the findings sorted
// by position. Analyzer errors abort the run — they indicate a broken
// analyzer or unanalyzable input, not a finding.
func Run(fset *token.FileSet, units []*Unit, analyzers []*Analyzer, filter func(*Analyzer, *Unit) bool) ([]Finding, error) {
	var findings []Finding
	for _, u := range units {
		for _, a := range analyzers {
			if filter != nil && !filter(a, u) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     u.Files,
				Pkg:       u.Pkg,
				TypesInfo: u.Info,
			}
			pass.Report = func(d Diagnostic) {
				if !u.Reportable(fset, d.Pos) {
					return
				}
				findings = append(findings, Finding{
					Analyzer: a.Name,
					Position: fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, u.ImportPath, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		pa, pb := findings[i].Position, findings[j].Position
		if pa.Filename != pb.Filename {
			return pa.Filename < pb.Filename
		}
		if pa.Line != pb.Line {
			return pa.Line < pb.Line
		}
		if pa.Column != pb.Column {
			return pa.Column < pb.Column
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, nil
}
