package main

// The SARIF renderer: the 2.1.0 interchange subset GitHub code scanning
// consumes — one run, one driver carrying a rule per analyzer, one
// result per finding.

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
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
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

const sarifSchema = "https://json.schemastore.org/sarif-2.1.0.json"

func renderSARIF(findings []analysis.Finding, analyzers []*analysis.Analyzer, root string) ([]byte, error) {
	rules := make([]sarifRule, len(analyzers))
	index := make(map[string]int, len(analyzers))
	for i, a := range analyzers {
		index[a.Name] = i
		rules[i] = sarifRule{ID: a.Name, ShortDescription: sarifText{Text: a.Doc}}
	}

	results := make([]sarifResult, len(findings))
	for i, f := range findings {
		results[i] = sarifResult{
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
		}
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
