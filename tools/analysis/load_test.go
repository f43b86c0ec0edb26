package analysis_test

import (
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"cdt/tools/analysis"
)

// TestLoadUnits loads one real package of the parent module and checks
// the unit split: a Lib unit for the library files and a Test unit that
// merges the in-package test files but only reports into them.
func TestLoadUnits(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset, units, err := analysis.Load(root, []string{"./internal/pattern"})
	if err != nil {
		t.Fatal(err)
	}
	byKind := make(map[analysis.UnitKind]*analysis.Unit)
	for _, u := range units {
		byKind[u.Kind] = u
	}
	lib, ok := byKind[analysis.Lib]
	if !ok {
		t.Fatal("no Lib unit for internal/pattern")
	}
	if lib.Pkg.Name() != "pattern" {
		t.Fatalf("Lib unit package = %q, want pattern", lib.Pkg.Name())
	}
	test, ok := byKind[analysis.Test]
	if !ok {
		t.Fatal("no Test unit for internal/pattern (it has _test.go files)")
	}
	if len(test.Files) <= len(lib.Files) {
		t.Fatalf("Test unit has %d files, want more than Lib's %d", len(test.Files), len(lib.Files))
	}
	// The Test unit must refuse to report into library files.
	var libPos, testPos token.Pos
	for _, f := range test.Files {
		name := fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			testPos = f.Pos()
		} else {
			libPos = f.Pos()
		}
	}
	if test.Reportable(fset, libPos) {
		t.Error("Test unit reports into a library file")
	}
	if !test.Reportable(fset, testPos) {
		t.Error("Test unit does not report into its own test file")
	}
	if !lib.Reportable(fset, libPos) {
		t.Error("Lib unit does not report into its own file")
	}
}

// TestRunFilter checks that the driver honors the analyzer/unit filter
// and sorts findings by position.
func TestRunFilter(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset, units, err := analysis.Load(root, []string{"./internal/pattern"})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	a := &analysis.Analyzer{
		Name: "probe",
		Doc:  "reports once per file",
		Run: func(p *analysis.Pass) error {
			hits++
			for _, f := range p.Files {
				p.Reportf(f.Pos(), "saw file")
			}
			return nil
		},
	}
	findings, err := analysis.Run(fset, units, []*analysis.Analyzer{a}, func(_ *analysis.Analyzer, u *analysis.Unit) bool {
		return u.Kind == analysis.Lib
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("analyzer ran on %d units, want 1 (Lib only)", hits)
	}
	if len(findings) == 0 {
		t.Fatal("no findings from probe analyzer")
	}
	for i := 1; i < len(findings); i++ {
		if findings[i].Position.Filename < findings[i-1].Position.Filename {
			t.Fatal("findings not sorted by filename")
		}
	}
}
