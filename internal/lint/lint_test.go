package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"anchor/internal/lint"
)

// checkSource type-checks one in-memory file (stdlib-only imports) and
// runs the full suite over it.
func checkSource(t *testing.T, src string) []lint.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var imports []string
	for _, imp := range f.Imports {
		imports = append(imports, strings.Trim(imp.Path.Value, `"`))
	}
	exports, err := lint.ExportData("", imports...)
	if err != nil {
		t.Fatalf("export data: %v", err)
	}
	typed, info, err := lint.Check("fixture", fset, []*ast.File{f}, lint.ExportImporter(fset, exports))
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	pkg := &lint.Package{PkgPath: "fixture", Fset: fset, Files: []*ast.File{f}, Types: typed, TypesInfo: info}
	diags, err := lint.RunAnalyzers([]*lint.Package{pkg}, lint.All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return diags
}

// TestIgnoreDirectiveSuppresses checks that a valid directive marks the
// finding suppressed and records its reason.
func TestIgnoreDirectiveSuppresses(t *testing.T) {
	diags := checkSource(t, `package p

// F collects keys without sorting, with a documented justification.
func F(m map[string]int) []string {
	var keys []string
	for k := range m {
		//anchorlint:ignore maporder key order is irrelevant downstream
		keys = append(keys, k)
	}
	return keys
}
`)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if !d.Suppressed {
		t.Fatalf("finding not suppressed: %v", d)
	}
	if d.SuppressReason != "key order is irrelevant downstream" {
		t.Fatalf("wrong reason: %q", d.SuppressReason)
	}
}

// TestIgnoreDirectiveNeedsReason checks that a bare directive is itself
// reported and suppresses nothing.
func TestIgnoreDirectiveNeedsReason(t *testing.T) {
	diags := checkSource(t, `package p

// F collects keys without sorting under a reason-less directive.
func F(m map[string]int) []string {
	var keys []string
	for k := range m {
		//anchorlint:ignore maporder
		keys = append(keys, k)
	}
	return keys
}
`)
	var gotBad, gotFinding bool
	for _, d := range diags {
		if d.Rule == "anchorlint" && strings.Contains(d.Message, "needs a rule name and a reason") {
			gotBad = true
		}
		if d.Rule == "maporder" && !d.Suppressed {
			gotFinding = true
		}
	}
	if !gotBad || !gotFinding {
		t.Fatalf("want invalid-directive report and unsuppressed finding, got %v", diags)
	}
}

// TestIgnoreDirectiveUnknownRule checks that a typo'd rule name is
// reported instead of silently suppressing nothing.
func TestIgnoreDirectiveUnknownRule(t *testing.T) {
	diags := checkSource(t, `package p

// F carries a directive naming a rule that does not exist.
func F() int {
	//anchorlint:ignore maporderz sorted elsewhere
	return 1
}
`)
	if len(diags) != 1 || diags[0].Rule != "anchorlint" ||
		!strings.Contains(diags[0].Message, `unknown rule "maporderz"`) {
		t.Fatalf("want unknown-rule report, got %v", diags)
	}
}

// TestIgnoreDirectiveStale checks that a directive with nothing left to
// suppress is reported, so fixed code sheds its exceptions.
func TestIgnoreDirectiveStale(t *testing.T) {
	diags := checkSource(t, `package p

import "sort"

// F sorts its keys; the leftover directive must be called out.
func F(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		//anchorlint:ignore maporder stale justification
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
`)
	if len(diags) != 1 || diags[0].Rule != "anchorlint" ||
		!strings.Contains(diags[0].Message, "suppresses nothing") {
		t.Fatalf("want stale-directive report, got %v", diags)
	}
}

// TestLoadRepoPackage smoke-tests the go list -export loader against a
// real module package.
func TestLoadRepoPackage(t *testing.T) {
	pkgs, err := lint.Load("", "anchor/internal/cooc")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].PkgPath != "anchor/internal/cooc" {
		t.Fatalf("got %d packages, want anchor/internal/cooc", len(pkgs))
	}
	p := pkgs[0]
	if len(p.Files) == 0 || p.Types == nil || p.TypesInfo == nil {
		t.Fatalf("package not fully loaded: %+v", p)
	}
	// The shard-merge and entry-emission loops are deterministic by
	// construction (keyed accumulation, collect-then-sort); the
	// determinism rules must stay silent here without any suppression.
	// testonly judges callers across the whole module: with cooc loaded
	// alone, every name that only other packages call looks test-only.
	var rules []*lint.Analyzer
	for _, a := range lint.All() {
		if a != lint.TestOnly {
			rules = append(rules, a)
		}
	}
	diags, err := lint.RunAnalyzers(pkgs, rules)
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	for _, d := range diags {
		if !d.Suppressed {
			t.Errorf("unexpected finding in cooc: %v", d)
		}
	}
}
