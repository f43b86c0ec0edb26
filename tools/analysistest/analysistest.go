// Package analysistest runs an analyzer over golden testdata packages and
// checks its diagnostics against `// want` comments, mirroring the
// x/tools package of the same name closely enough that the analyzer tests
// read identically.
//
// Testdata layout is the x/tools convention: testdata/src/<pkg>/*.go.
// Every line that should produce a diagnostic carries a comment of the
// form
//
//	code // want "regexp"
//	code // want "first" "second"
//
// where each quoted (or backquoted) string is a regular expression that
// must match the diagnostic message reported on that line. Diagnostics
// without a matching want, and wants without a matching diagnostic, fail
// the test. Testdata packages are type-checked from source and may import
// the real cdt module (resolved through the repository's go.work).
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cdt/tools/analysis"
)

// Run applies the analyzer to each named package under dir/src and
// reports mismatches between its diagnostics and the // want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		runPackage(t, filepath.Join(dir, "src", pkg), pkg, a)
	}
}

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	abs, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return abs
}

// expectation is one // want regexp, consumed when a diagnostic matches.
type expectation struct {
	rx   *regexp.Regexp
	used bool
}

func runPackage(t *testing.T, dir, pkgPath string, a *analysis.Analyzer) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		t.Fatalf("%s: no Go files in %s", a.Name, dir)
	}
	fset, unit, err := analysis.LoadFiles(pkgPath, files)
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	wants, err := collectWants(fset, unit.Files)
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	diags, err := analysis.Run(fset, []*analysis.Unit{unit}, []*analysis.Analyzer{a}, nil)
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Position.Filename, d.Position.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.rx.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic at %s:%d: %s", a.Name, d.Position.Filename, d.Position.Line, d.Message)
		}
	}
	var keys []string
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.used {
				t.Errorf("%s: no diagnostic at %s matching %q", a.Name, k, w.rx)
			}
		}
	}
}

// wantRx extracts the quoted regexps of one want comment.
var wantRx = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// collectWants maps "file:line" to the expectations declared there.
func collectWants(fset *token.FileSet, files []*ast.File) (map[string][]*expectation, error) {
	wants := make(map[string][]*expectation)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range wantRx.FindAllString(strings.TrimPrefix(text, "want "), -1) {
					var pat string
					if q[0] == '`' {
						pat = q[1 : len(q)-1]
					} else {
						var err error
						pat, err = strconv.Unquote(q)
						if err != nil {
							return nil, fmt.Errorf("%s: bad want string %s: %v", pos, q, err)
						}
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					wants[key] = append(wants[key], &expectation{rx: rx})
				}
			}
		}
	}
	return wants, nil
}
