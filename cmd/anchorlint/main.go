// Command anchorlint is the multichecker driver for the repository's
// determinism lint suite (internal/lint). It loads the named packages,
// runs every selected analyzer, and exits non-zero when any unsuppressed
// finding remains:
//
//	anchorlint ./...                      # whole module (the CI gate)
//	anchorlint -rules seedrand ./...      # one rule
//	anchorlint -show-suppressed ./...     # audit documented exceptions
//	anchorlint -format sarif ./...        # SARIF 2.1.0 for code scanning
//
// Findings are suppressed in place with
//
//	//anchorlint:ignore <rule> <reason>
//
// on the flagged line or the line directly above it. See
// docs/ARCHITECTURE.md ("Determinism rules") for the rule catalogue.
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
	showSuppressed := flag.Bool("show-suppressed", false, "also print findings covered by //anchorlint:ignore, with their reasons")
	list := flag.Bool("list", false, "print the analyzer catalogue and exit")
	format := flag.String("format", "text", `output format: "text" or "sarif" (SARIF 2.1.0)`)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: anchorlint [flags] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
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

	failures := 0
	for _, d := range diags {
		if !d.Suppressed {
			failures++
		}
	}

	switch *format {
	case "sarif":
		out, err := lint.SARIF(diags)
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
			case !d.Suppressed:
				fmt.Println(d)
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "anchorlint: unknown -format %q (have: text, sarif)\n", *format)
		os.Exit(2)
	}

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "anchorlint: %d finding(s)\n", failures)
		os.Exit(1)
	}
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
