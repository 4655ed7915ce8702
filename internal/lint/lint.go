// Package lint implements anchorlint, a suite of static analyzers that
// mechanically enforce this repository's bitwise-determinism contract:
// worker-count-invariant training, order-preserving kernels, and seeded
// sharded RNGs (see docs/ARCHITECTURE.md, "Determinism rules"). The suite
// also checks the API surface: the testonly rule keeps exported names in
// internal/ packages that only tests reference from piling up.
//
// The package mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but is self-contained: packages are loaded
// with `go list -export` and type-checked against compiler export data, so
// the linter needs nothing beyond the standard library and the go tool.
//
// Findings can be suppressed in place with a directive comment
//
//	//anchorlint:ignore <rule> <reason>
//
// placed on the flagged line or on the line directly above it. The reason
// is mandatory: intentional nondeterminism (for example the retry
// backoff timer in internal/query) must be documented where it happens. A
// directive with a missing reason or an unknown rule name is itself
// reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one lint rule: a named, documented check that
// reports diagnostics. Per-package rules implement Run; rules that need
// the whole module at once (call-graph analyses) implement RunModule.
type Analyzer struct {
	// Name identifies the rule in diagnostics and in
	// //anchorlint:ignore directives.
	Name string
	// Doc is a one-paragraph description of the contract clause the
	// rule enforces.
	Doc string
	// Run executes the rule over one package. Nil for module-level rules.
	Run func(*Pass) error
	// RunModule executes the rule once over every loaded package, with
	// the module call graph available. Nil for per-package rules.
	RunModule func(*ModulePass) error
}

// A Pass provides one analyzer run with a single type-checked package and
// a sink for diagnostics.
type Pass struct {
	// Analyzer is the rule being run.
	Analyzer *Analyzer
	// Fset maps token positions of Files to file/line/column.
	Fset *token.FileSet
	// Files holds the package's parsed syntax trees (library files
	// only; _test.go files are not analyzed).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds type and object resolution for Files.
	TypesInfo *types.Info
	// PkgPath is the package's import path.
	PkgPath string

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos under the pass's rule name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding: a rule violation at a source position.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Rule is the analyzer name that produced it.
	Rule string
	// Message describes the violation and the sanctioned alternative.
	Message string
	// Suppressed reports whether an //anchorlint:ignore directive covers
	// the finding; suppressed findings do not fail the build.
	Suppressed bool
	// SuppressReason is the directive's documented justification.
	SuppressReason string
}

// String formats the diagnostic in the conventional file:line:col style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Rule)
}

// A ModulePass provides one module-level analyzer run with every loaded
// package, the call graph over them, and a sink for diagnostics.
type ModulePass struct {
	// Analyzer is the rule being run.
	Analyzer *Analyzer
	// Pkgs are all loaded packages, in load order.
	Pkgs []*Package
	// Graph is the static call graph over Pkgs (see BuildCallGraph).
	Graph *CallGraph

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos (resolved through pkg's FileSet)
// under the pass's rule name.
func (p *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     pkg.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// All returns the full anchorlint analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		SeedRand, MapOrder, FPReduce, SharedWrite,
		DetTaint, CtxFlow, FaultSite, SyncGuard, TestOnly,
	}
}

// ByName resolves an analyzer by rule name (nil when unknown).
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// ignoreDirective is one parsed //anchorlint:ignore comment.
type ignoreDirective struct {
	pos    token.Position
	rules  []string
	reason string
	used   bool
	valid  bool
	err    string
}

const ignorePrefix = "anchorlint:ignore"

// parseDirectives extracts every //anchorlint:ignore directive from a
// file's comments.
func parseDirectives(fset *token.FileSet, file *ast.File) []*ignoreDirective {
	var ds []*ignoreDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, ignorePrefix) {
				continue
			}
			d := &ignoreDirective{pos: fset.Position(c.Pos())}
			fields := strings.Fields(strings.TrimPrefix(text, ignorePrefix))
			if len(fields) < 2 {
				d.err = "anchorlint:ignore needs a rule name and a reason: //anchorlint:ignore <rule> <reason>"
			} else {
				d.rules = strings.Split(fields[0], ",")
				d.reason = strings.Join(fields[1:], " ")
				d.valid = true
				for _, r := range d.rules {
					if !knownRule(r) {
						d.valid = false
						d.err = fmt.Sprintf("anchorlint:ignore names unknown rule %q", r)
					}
				}
			}
			ds = append(ds, d)
		}
	}
	return ds
}

// allRunning reports whether every named rule is among those being run.
func allRunning(rules []string, running map[string]bool) bool {
	for _, r := range rules {
		if !running[r] {
			return false
		}
	}
	return true
}

// knownRule reports whether name identifies an analyzer in the suite.
func knownRule(name string) bool {
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// covers reports whether the directive suppresses rule at line: directives
// apply to their own line and to the line directly below them.
func (d *ignoreDirective) covers(rule string, line int) bool {
	if !d.valid || (d.pos.Line != line && d.pos.Line != line-1) {
		return false
	}
	for _, r := range d.rules {
		if r == rule {
			return true
		}
	}
	return false
}

// RunAnalyzers executes the analyzers over every package, applies
// //anchorlint:ignore suppressions, and returns all diagnostics sorted by
// position. Suppressed findings are returned with Suppressed set so
// drivers can surface them on request; invalid or unused directives are
// reported as findings of the pseudo-rule "anchorlint".
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	running := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		running[a.Name] = true
	}
	var all []Diagnostic
	// Module-level analyzers first: they share one call graph, built once.
	var graph *CallGraph
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		if graph == nil {
			graph = BuildCallGraph(pkgs)
		}
		mp := &ModulePass{Analyzer: a, Pkgs: pkgs, Graph: graph, diags: &all}
		if err := a.RunModule(mp); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				PkgPath:   pkg.PkgPath,
				diags:     &all,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	// Suppression directives come from every loaded file and apply by
	// filename, so module-level findings are suppressible exactly like
	// per-package ones.
	var directives []*ignoreDirective
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			directives = append(directives, parseDirectives(pkg.Fset, f)...)
		}
	}
	for i := range all {
		d := &all[i]
		for _, dir := range directives {
			if dir.covers(d.Rule, d.Pos.Line) && dir.pos.Filename == d.Pos.Filename {
				d.Suppressed = true
				d.SuppressReason = dir.reason
				dir.used = true
				break
			}
		}
	}
	for _, dir := range directives {
		switch {
		case dir.err != "":
			all = append(all, Diagnostic{Pos: dir.pos, Rule: "anchorlint", Message: dir.err})
		case !dir.used && allRunning(dir.rules, running):
			// Only call a directive stale when every rule it
			// names was actually run this invocation.
			all = append(all, Diagnostic{Pos: dir.pos, Rule: "anchorlint",
				Message: fmt.Sprintf("anchorlint:ignore suppresses nothing (rules %s)", strings.Join(dir.rules, ","))})
		}
	}
	// A nested loop can be visited from two enclosing contexts; keep one
	// copy of byte-identical findings.
	seen := make(map[Diagnostic]bool, len(all))
	uniq := all[:0]
	for _, d := range all {
		key := d
		key.Suppressed, key.SuppressReason = false, ""
		if !seen[key] {
			seen[key] = true
			uniq = append(uniq, d)
		}
	}
	all = uniq
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Pos, all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return all, nil
}
