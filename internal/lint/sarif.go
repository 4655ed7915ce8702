package lint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
)

// SARIF 2.1.0 document model — the subset anchorlint emits, shaped for
// GitHub code scanning: one run, a populated rule catalogue, and one
// result per diagnostic with its in-source suppression preserved. Every
// rule is an error: any unsuppressed finding fails the build.
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
	ID                   string      `json:"id"`
	ShortDescription     sarifText   `json:"shortDescription"`
	DefaultConfiguration sarifConfig `json:"defaultConfiguration"`
}

type sarifConfig struct {
	Level string `json:"level"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID       string             `json:"ruleId"`
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

// SARIF renders the diagnostics as a SARIF 2.1.0 log. File URIs are
// emitted relative to the working directory so code-scanning annotations
// land on repository paths.
func SARIF(diags []Diagnostic) ([]byte, error) {
	rules := make([]sarifRule, 0, len(All())+1)
	for _, a := range All() {
		rules = append(rules, sarifRule{
			ID:                   a.Name,
			ShortDescription:     sarifText{Text: a.Doc},
			DefaultConfiguration: sarifConfig{Level: "error"},
		})
	}
	rules = append(rules, sarifRule{
		ID:                   "anchorlint",
		ShortDescription:     sarifText{Text: "directive hygiene: malformed, unknown-rule, or stale //anchorlint:ignore comments"},
		DefaultConfiguration: sarifConfig{Level: "error"},
	})
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		r := sarifResult{
			RuleID:  d.Rule,
			Level:   "error",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: relPath(d.Pos.Filename), URIBaseID: "%SRCROOT%"},
				Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
			}}},
		}
		if d.Suppressed {
			r.Suppressions = []sarifSuppression{{Kind: "inSource", Justification: d.SuppressReason}}
		}
		results = append(results, r)
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "anchorlint", Rules: rules}},
			Results: results,
		}},
	}
	return json.MarshalIndent(&log, "", "  ")
}

// relPath returns the path relative to the working directory in slash
// form when it lies beneath it, else the path unchanged (slashed), so
// SARIF URIs are machine-independent.
func relPath(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return filepath.ToSlash(path)
	}
	if rel, err := filepath.Rel(wd, path); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(path)
}
