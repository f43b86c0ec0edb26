package main

// The SARIF renderer: the 2.1.0 interchange subset GitHub code scanning
// consumes — one run, one driver carrying a rule per analyzer, one
// result per finding. Suppressed findings are emitted as results
// carrying an inSource suppression with the directive's justification —
// code scanning shows them as dismissed instead of open, and suppression
// growth stays reviewable.

import (
	"encoding/json"
	"path/filepath"

	"cdt/tools/analysis"
)

// SARIF 2.1.0 subset.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID       string             `json:"ruleId"`
	RuleIndex    int                `json:"ruleIndex"`
	Level        string             `json:"level"`
	Message      sarifText          `json:"message"`
	Locations    []sarifLocation    `json:"locations"`
	Suppressions []sarifSuppression `json:"suppressions,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

type sarifSuppression struct {
	Kind          string `json:"kind"`
	Justification string `json:"justification,omitempty"`
}

const sarifSchema = "https://json.schemastore.org/sarif-2.1.0.json"

func renderSARIF(findings []analysis.Finding, suppressed []analysis.SuppressedFinding, analyzers []*analysis.Analyzer, root string) ([]byte, error) {
	rules := make([]sarifRule, 0, len(analyzers)+1)
	index := make(map[string]int, len(analyzers)+1)
	addRule := func(id, doc string) {
		if _, ok := index[id]; ok {
			return
		}
		index[id] = len(rules)
		rules = append(rules, sarifRule{ID: id, ShortDescription: sarifText{Text: doc}})
	}
	for _, a := range analyzers {
		addRule(a.Name, a.Doc)
	}
	// The reserved rule for malformed //cdtlint:ignore directives.
	addRule(analysis.DirectiveAnalyzer, "malformed cdtlint suppression directive")

	toResult := func(f analysis.Finding, sup []sarifSuppression) sarifResult {
		return sarifResult{
			RuleID:    f.Analyzer,
			RuleIndex: index[f.Analyzer],
			Level:     "error",
			Message:   sarifText{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{
						URI:       filepath.ToSlash(relPath(root, f.Position.Filename)),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{StartLine: f.Position.Line, StartColumn: f.Position.Column},
				},
			}},
			Suppressions: sup,
		}
	}

	results := make([]sarifResult, 0, len(findings)+len(suppressed))
	for _, f := range findings {
		results = append(results, toResult(f, nil))
	}
	for _, s := range suppressed {
		results = append(results, toResult(s.Finding, []sarifSuppression{{Kind: "inSource", Justification: s.Reason}}))
	}

	log := sarifLog{
		Schema:  sarifSchema,
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "cdtlint", Rules: rules}},
			Results: results,
		}},
	}
	out, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
