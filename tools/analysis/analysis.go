// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis API surface that cdtlint needs. The
// build environment for this repository is fully offline (the root module
// must stay zero-dependency and the module cache is empty), so the real
// x/tools framework is not importable; this package keeps the same shapes
// — Analyzer, Pass, Diagnostic — so the analyzers read like standard
// go/analysis code and could be ported to the real framework by swapping
// the import.
//
// The deliberate differences from x/tools are documented where they
// matter: packages are loaded with `go list -json` plus the standard
// library's source importer (see load.go), there is no Fact or Result
// plumbing between analyzers (cdtlint's analyzers are independent), and
// diagnostics carry no suggested fixes.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check: a name, documentation, and a Run
// function applied to every loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -list output. It
	// must be a valid Go identifier.
	Name string
	// Doc is the analyzer's documentation; the first line is the summary.
	Doc string
	// Run applies the analyzer to one package. Diagnostics are delivered
	// through pass.Report / pass.Reportf; the error return is for
	// analyzer failure, not for findings.
	Run func(*Pass) error
}

// Pass is the interface between one analyzer and one package unit. Unlike
// x/tools there is one Pass per (analyzer, unit); units are either a
// package's library files, its merged in-package test files, or its
// external _test package (see load.go).
type Pass struct {
	// Analyzer is the check being applied.
	Analyzer *Analyzer
	// Fset maps token positions to file locations. It is shared by every
	// unit of a load so positions are comparable across packages.
	Fset *token.FileSet
	// Files are the unit's parsed syntax trees.
	Files []*ast.File
	// Pkg is the unit's type-checked package.
	Pkg *types.Package
	// TypesInfo holds type information for the unit's syntax.
	TypesInfo *types.Info
	// Report delivers one diagnostic. The driver filters diagnostics to
	// the unit's reportable files (a merged test unit re-checks library
	// files for type information but must not double-report into them).
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
