// Command anchorlint is the multichecker driver for the repository's
// determinism lint suite (internal/lint). It loads the named packages,
// runs every selected analyzer, and exits non-zero when any unsuppressed
// error-severity finding remains or the baseline has gone stale:
//
//	anchorlint ./...                      # whole module (the CI gate)
//	anchorlint -rules seedrand ./...      # one rule
//	anchorlint -show-suppressed ./...     # audit documented exceptions
//	anchorlint -format sarif ./...        # SARIF 2.1.0 for code scanning
//	anchorlint -baseline lint-baseline.json ./...
//
// Findings are suppressed in place with
//
//	//anchorlint:ignore <rule> <reason>
//
// on the flagged line or the line directly above it, or carried in a
// -baseline file written once at rule-adoption time (-write-baseline);
// baseline entries that stop matching fail the run, so the baseline only
// ever shrinks. See docs/ARCHITECTURE.md ("Determinism rules") for the
// rule catalogue.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"anchor/internal/lint"
)

func main() {
	rules := flag.String("rules", "", "comma-separated analyzer names to run (default: all)")
	detPkgs := flag.String("det-packages", "", "comma-separated override of the deterministic package list (paths; trailing /... matches a subtree)")
	showSuppressed := flag.Bool("show-suppressed", false, "also print findings covered by //anchorlint:ignore or the baseline, with their reasons")
	list := flag.Bool("list", false, "print the analyzer catalogue and exit")
	format := flag.String("format", "text", `output format: "text" or "sarif" (SARIF 2.1.0)`)
	baselinePath := flag.String("baseline", "", "JSON baseline of accepted findings; entries that no longer match any finding fail the run (default: lint-baseline.json when present)")
	writeBaseline := flag.String("write-baseline", "", "write the current unsuppressed findings to this baseline file and exit")
	severityFlag := flag.String("severity", "", "per-rule severity overrides, e.g. ctxflow=warning,syncguard=error (levels: error, warning, note); only error-severity findings fail the run")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: anchorlint [flags] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s [%s] %s\n", a.Name, a.EffectiveSeverity(), a.Doc)
		}
		return
	}
	if *detPkgs != "" {
		lint.DeterministicPackages = strings.Split(*detPkgs, ",")
	}
	severityOf, err := severityResolver(*severityFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "anchorlint:", err)
		os.Exit(2)
	}
	analyzers, err := selectAnalyzers(*rules)
	if err != nil {
		fmt.Fprintln(os.Stderr, "anchorlint:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "anchorlint:", err)
		os.Exit(2)
	}
	diags, err := lint.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "anchorlint:", err)
		os.Exit(2)
	}
	if *writeBaseline != "" {
		if err := lint.WriteBaseline(*writeBaseline, diags); err != nil {
			fmt.Fprintln(os.Stderr, "anchorlint:", err)
			os.Exit(2)
		}
		return
	}

	var stale []lint.BaselineEntry
	if *baselinePath == "" {
		// Pick up a lint-baseline.json beside the invocation so the bare
		// `anchorlint ./...` gate and local runs agree on the carried
		// findings without every caller repeating the flag.
		if _, err := os.Stat("lint-baseline.json"); err == nil {
			*baselinePath = "lint-baseline.json"
		}
	}
	if *baselinePath != "" {
		baseline, err := lint.ReadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anchorlint:", err)
			os.Exit(2)
		}
		// Staleness is only provable for entries this invocation actually
		// re-checked: the rule must have run and the file been loaded.
		running := make(map[string]bool, len(analyzers))
		for _, a := range analyzers {
			running[a.Name] = true
		}
		analyzed := make(map[string]bool)
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				analyzed[lint.RelPath(pkg.Fset.Position(f.Pos()).Filename)] = true
			}
		}
		stale = baseline.Apply(diags, running, analyzed)
	}

	failures := 0
	warnings := 0
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		if severityOf(d.Rule) == "error" {
			failures++
		} else {
			warnings++
		}
	}

	switch *format {
	case "sarif":
		out, err := lint.SARIF(diags, severityOf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anchorlint:", err)
			os.Exit(2)
		}
		fmt.Println(string(out))
	case "text":
		for _, d := range diags {
			switch {
			case d.Suppressed && *showSuppressed:
				fmt.Printf("%s: suppressed [%s]: %s (%s)\n", d.Pos, d.SuppressReason, d.Message, d.Rule)
			case !d.Suppressed && severityOf(d.Rule) != "error":
				fmt.Printf("%s: %s: %s (%s)\n", d.Pos, severityOf(d.Rule), d.Message, d.Rule)
			case !d.Suppressed:
				fmt.Println(d)
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "anchorlint: unknown -format %q (have: text, sarif)\n", *format)
		os.Exit(2)
	}

	for _, e := range stale {
		fmt.Fprintf(os.Stderr, "anchorlint: stale baseline entry (finding fixed — delete it from the baseline): %s %s: %s\n",
			e.Rule, e.File, e.Message)
	}
	if failures > 0 || len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "anchorlint: %d finding(s), %d stale baseline entr(ies)\n", failures, len(stale))
		os.Exit(1)
	}
}

// severityResolver parses -severity overrides and returns the effective
// per-rule severity function.
func severityResolver(overrides string) (func(string) string, error) {
	m := make(map[string]string)
	if overrides != "" {
		for _, pair := range strings.Split(overrides, ",") {
			rule, level, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				return nil, fmt.Errorf("bad -severity entry %q (want rule=level)", pair)
			}
			switch level {
			case "error", "warning", "note":
			default:
				return nil, fmt.Errorf("bad severity level %q for rule %s (have: error, warning, note)", level, rule)
			}
			if lint.ByName(rule) == nil && rule != "anchorlint" {
				return nil, fmt.Errorf("unknown rule %q in -severity", rule)
			}
			m[rule] = level
		}
	}
	return func(rule string) string {
		if level, ok := m[rule]; ok {
			return level
		}
		return lint.SeverityOf(rule)
	}, nil
}

// selectAnalyzers resolves a comma-separated rule list against the suite.
func selectAnalyzers(rules string) ([]*lint.Analyzer, error) {
	if rules == "" {
		return lint.All(), nil
	}
	var names []string
	for _, a := range lint.All() {
		names = append(names, a.Name)
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(rules, ",") {
		a := lint.ByName(strings.TrimSpace(name))
		if a == nil {
			return nil, fmt.Errorf("unknown rule %q (have: %s)", name, strings.Join(names, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}
