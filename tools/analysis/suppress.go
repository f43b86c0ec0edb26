package analysis

// Lint suppression directives. A comment of the form
//
//	//cdtlint:ignore <analyzer> <reason>
//
// suppresses the named analyzer's findings on the directive's line — or,
// when the directive stands alone on its line, on the line directly
// below it. The reason is mandatory: a suppression is a reviewed,
// justified exception to a machine-enforced invariant, and the
// justification travels with the code (and into SARIF output as an
// inSource suppression). A directive missing its analyzer or reason is
// itself reported as a finding under the reserved analyzer name
// "cdtlint", so a typo cannot silently disable a check.
//
// Suppressed findings do not fail a cdtlint run, but they are not
// discarded: Run returns them separately and the -format sarif output
// carries them, so suppression growth stays visible.

import (
	"go/ast"
	"go/token"
	"strings"
)

// ignorePrefix introduces a suppression directive. Directive comments
// follow the Go convention: no space after "//".
const ignorePrefix = "//cdtlint:ignore"

// DirectiveAnalyzer is the reserved analyzer name under which the driver
// reports malformed directives.
const DirectiveAnalyzer = "cdtlint"

// Suppression is one parsed //cdtlint:ignore directive.
type Suppression struct {
	// Analyzer is the analyzer whose findings the directive suppresses.
	Analyzer string
	// Reason is the mandatory justification.
	Reason string
	// File and Line locate the suppressed line (already adjusted for
	// standalone directives, which cover the line below them).
	File string
	Line int
}

// SuppressedFinding is a finding that matched a suppression directive:
// it does not fail the run but is counted and carried in structured
// output.
type SuppressedFinding struct {
	Finding
	// Reason is the directive's justification.
	Reason string
}

// SuppressionSet indexes one unit's directives by suppressed
// file:line.
type SuppressionSet struct {
	byLine map[string][]Suppression
}

// Match returns the directive suppressing analyzer findings at pos, if
// any.
func (s *SuppressionSet) Match(analyzer string, pos token.Position) (Suppression, bool) {
	if s == nil || len(s.byLine) == 0 {
		return Suppression{}, false
	}
	for _, sup := range s.byLine[posKey(pos.Filename, pos.Line)] {
		if sup.Analyzer == analyzer {
			return sup, true
		}
	}
	return Suppression{}, false
}

func posKey(file string, line int) string {
	return file + ":" + itoa(line)
}

// itoa is a minimal strconv.Itoa for non-negative line numbers, keeping
// the hot match path free of fmt.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// CollectSuppressions parses every //cdtlint:ignore directive in files.
// Malformed directives are returned as findings under the reserved
// "cdtlint" analyzer name. A directive's target line is its own line
// when other code shares it, else the next line.
func CollectSuppressions(fset *token.FileSet, files []*ast.File) (*SuppressionSet, []Finding) {
	set := &SuppressionSet{byLine: make(map[string][]Suppression)}
	var malformed []Finding
	for _, f := range files {
		codeLines := codeLineSet(fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					// A different directive (e.g. //cdtlint:ignoreX): not ours.
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					malformed = append(malformed, Finding{
						Analyzer: DirectiveAnalyzer,
						Position: pos,
						Message:  "malformed //cdtlint:ignore directive: want \"//cdtlint:ignore <analyzer> <reason>\" (the reason is mandatory)",
					})
					continue
				}
				line := pos.Line
				if !codeLines[line] {
					// Standalone directive: it covers the line below.
					line++
				}
				set.byLine[posKey(pos.Filename, line)] = append(set.byLine[posKey(pos.Filename, line)], Suppression{
					Analyzer: fields[0],
					Reason:   strings.Join(fields[1:], " "),
					File:     pos.Filename,
					Line:     line,
				})
			}
		}
	}
	return set, malformed
}

// codeLineSet returns the set of lines in f carrying non-comment syntax,
// so a directive can tell whether it trails code or stands alone.
func codeLineSet(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		case *ast.File:
			return true
		}
		start, end := fset.Position(n.Pos()), fset.Position(n.End())
		if start.Line == end.Line {
			lines[start.Line] = true
		} else {
			// Only terminal lines matter for trailing-comment detection;
			// marking both bounds the cost for large multi-line nodes.
			lines[start.Line] = true
			lines[end.Line] = true
		}
		return true
	})
	return lines
}
