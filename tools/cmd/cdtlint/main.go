// Command cdtlint is the project's static-analysis gate: it type-checks
// every package matching the given patterns (./... by default) and
// applies the repository-specific analyzers that machine-check the
// contracts the concurrent pipeline depends on:
//
//	immutview     mutations of shared Corpus/labeling views
//	locksafe      unreleased locks, RWMutex upgrades, blocking under a lock
//	detfloat      nondeterminism in the training hot path
//	lockdoc       undocumented locking on mutex-guarded state mutators
//	kinddispatch  non-exhaustive switches over artifact kinds
//	metriclabel   Vec.With in loops, unbounded metric label values
//
// Two contracts are enforced elsewhere: go vet's copylocks rejects every
// copy of a Corpus (it holds a sync.RWMutex), and allocation tests
// (named *Allocates*, run without -race) pin the engine's cursor and
// sweep and the fastjson response appenders.
//
// Test files are analyzed by the view/lock analyzers too — a test that
// corrupts a cached view poisons every later test sharing the corpus.
// The invariant-specific analyzers are scoped: detfloat to the training
// hot path (cdt, internal/core, internal/pattern, internal/quality,
// internal/bayesopt), lockdoc to internal/modelstore, and kinddispatch
// and metriclabel to library code, where the contracts they check
// actually bind.
//
// A finding can be suppressed in source with a justified directive:
//
//	//cdtlint:ignore <analyzer> <reason>
//
// trailing the offending line, or standing alone on the line above it.
// Suppressed findings do not fail the run but are carried (with their
// justifications) in the -format sarif output.
//
// Usage, from the repository root:
//
//	go run ./tools/cmd/cdtlint ./...
//	go run ./tools/cmd/cdtlint -format sarif ./... > cdtlint.sarif
//
// -format sarif emits SARIF 2.1.0 for GitHub code-scanning upload, with
// file URIs relative to the working directory (%SRCROOT%).
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"cdt/tools/analysis"
	"cdt/tools/analyzers/detfloat"
	"cdt/tools/analyzers/immutview"
	"cdt/tools/analyzers/kinddispatch"
	"cdt/tools/analyzers/lockdoc"
	"cdt/tools/analyzers/locksafe"
	"cdt/tools/analyzers/metriclabel"
)

var analyzers = []*analysis.Analyzer{
	immutview.Analyzer,
	locksafe.Analyzer,
	detfloat.Analyzer,
	lockdoc.Analyzer,
	kinddispatch.Analyzer,
	metriclabel.Analyzer,
}

// detfloatScope is the training hot path: the packages whose results the
// bit-identical-parallelism guarantee covers.
var detfloatScope = map[string]bool{
	"cdt":                   true,
	"cdt/internal/core":     true,
	"cdt/internal/pattern":  true,
	"cdt/internal/quality":  true,
	"cdt/internal/bayesopt": true,
}

// lockdocScope covers the packages whose locking discipline must stay
// legible: the model store's cached manifest/audit state today.
var lockdocScope = map[string]bool{
	"cdt/internal/modelstore": true,
}

// libOnly marks the analyzers that check library contracts: tests may
// switch over the kinds they exercise and mint throwaway metric labels
// without weakening the shipped binaries' invariants.
var libOnly = map[*analysis.Analyzer]bool{
	kinddispatch.Analyzer: true,
	metriclabel.Analyzer:  true,
}

func scope(a *analysis.Analyzer, u *analysis.Unit) bool {
	switch {
	case a == detfloat.Analyzer:
		return u.Kind == analysis.Lib && detfloatScope[u.ImportPath]
	case a == lockdoc.Analyzer:
		return u.Kind == analysis.Lib && lockdocScope[u.ImportPath]
	case libOnly[a]:
		return u.Kind == analysis.Lib
	}
	return true
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	format := flag.String("format", "text", "output format: text or sarif")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: cdtlint [-list] [-format text|sarif] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *format != "text" && *format != "sarif" {
		fmt.Fprintf(os.Stderr, "cdtlint: unknown format %q (want text or sarif)\n", *format)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	fset, units, err := analysis.Load(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cdtlint: %v\n", err)
		os.Exit(2)
	}
	findings, suppressed, err := analysis.Run(fset, units, analyzers, scope)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cdtlint: %v\n", err)
		os.Exit(2)
	}

	cwd, _ := os.Getwd()
	if *format == "sarif" {
		out, err := renderSARIF(findings, suppressed, analyzers, cwd)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdtlint: %v\n", err)
			os.Exit(2)
		}
		os.Stdout.Write(out)
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", relPath(cwd, f.Position.Filename), f.Position.Line, f.Position.Column, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "cdtlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// relPath makes name relative to root for display and SARIF URIs,
// falling back to the absolute name outside the tree.
func relPath(root, name string) string {
	if root == "" {
		return name
	}
	rel, err := filepath.Rel(root, name)
	if err != nil || rel == ".." || len(rel) > 1 && rel[0] == '.' && rel[1] == '.' {
		return name
	}
	return rel
}
