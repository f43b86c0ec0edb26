package main

import (
	"encoding/json"
	"go/token"
	"path/filepath"
	"testing"

	"cdt/tools/analysis"
)

func fixtureFindings(root string) []analysis.Finding {
	return []analysis.Finding{{
		Analyzer: "locksafe",
		Position: token.Position{Filename: filepath.Join(root, "internal", "engine", "engine.go"), Line: 42, Column: 7},
		Message:  "e.mu.Lock() is released neither by defer nor later in the same block",
	}, {
		Analyzer: "kinddispatch",
		Position: token.Position{Filename: filepath.Join(root, "artifact.go"), Line: 9, Column: 2},
		Message:  `switch on artifact kind does not handle registered kind "pyramid" and has no default`,
	}}
}

// TestRenderSARIFShape checks the exact envelope GitHub code scanning
// requires: schema/version, a driver with rules, results pointing at
// in-bounds rule indices, and %SRCROOT%-relative slash URIs.
func TestRenderSARIFShape(t *testing.T) {
	root := string(filepath.Separator) + "repo"
	findings := fixtureFindings(root)
	out, err := renderSARIF(findings, analyzers, root)
	if err != nil {
		t.Fatal(err)
	}

	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out, &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}

	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if log.Schema == "" {
		t.Error("missing $schema")
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "cdtlint" {
		t.Errorf("driver name = %q, want cdtlint", run.Tool.Driver.Name)
	}
	// One rule per registered analyzer.
	if want := len(analyzers); len(run.Tool.Driver.Rules) != want {
		t.Errorf("rules = %d, want %d", len(run.Tool.Driver.Rules), want)
	}
	ruleAt := map[int]string{}
	for i, r := range run.Tool.Driver.Rules {
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has no shortDescription", r.ID)
		}
		ruleAt[i] = r.ID
	}

	if want := len(findings); len(run.Results) != want {
		t.Fatalf("results = %d, want %d", len(run.Results), want)
	}
	for _, res := range run.Results {
		if ruleAt[res.RuleIndex] != res.RuleID {
			t.Errorf("result %s: ruleIndex %d resolves to %q", res.RuleID, res.RuleIndex, ruleAt[res.RuleIndex])
		}
		if res.Level != "error" {
			t.Errorf("result %s: level = %q, want error", res.RuleID, res.Level)
		}
		if res.Message.Text == "" {
			t.Errorf("result %s: empty message", res.RuleID)
		}
		if len(res.Locations) != 1 {
			t.Fatalf("result %s: locations = %d, want 1", res.RuleID, len(res.Locations))
		}
		loc := res.Locations[0].PhysicalLocation
		if filepath.IsAbs(loc.ArtifactLocation.URI) {
			t.Errorf("result %s: URI %q is absolute, want %%SRCROOT%%-relative", res.RuleID, loc.ArtifactLocation.URI)
		}
		if loc.ArtifactLocation.URIBaseID != "%SRCROOT%" {
			t.Errorf("result %s: uriBaseId = %q", res.RuleID, loc.ArtifactLocation.URIBaseID)
		}
		if loc.Region.StartLine <= 0 {
			t.Errorf("result %s: startLine = %d", res.RuleID, loc.Region.StartLine)
		}
	}

	first := run.Results[0]
	if got := first.Locations[0].PhysicalLocation.ArtifactLocation.URI; got != "internal/engine/engine.go" {
		t.Errorf("URI = %q, want internal/engine/engine.go (slash-separated, relative)", got)
	}
}
