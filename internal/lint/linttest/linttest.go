// Package linttest is an analysistest-style harness for the anchorlint
// analyzers: it type-checks a directory of fixture files, runs one
// analyzer over them, and compares the diagnostics against `// want`
// comments in the fixtures.
//
// A want comment holds one or more quoted regular expressions and binds to
// its own line:
//
//	sum += v // want `accumulation`
//	rand.Int() // want "global math/rand" "seeded"
//
// Every diagnostic must be claimed by a want on its line and every want
// must be claimed by a diagnostic; findings suppressed by a valid
// //anchorlint:ignore directive are dropped before matching, which is how
// fixtures assert that suppression works.
package linttest

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"go/ast"

	"anchor/internal/lint"
)

// want is one expected diagnostic: a line plus a message pattern.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	claimed bool
}

var quoted = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// Run type-checks the fixture directory as package pkgPath, runs the
// analyzer, and reports any mismatch between diagnostics and // want
// comments as test errors.
//
//anchorlint:ignore testonly the fixture harness of every analyzer test in internal/lint
func Run(t *testing.T, a *lint.Analyzer, dir, pkgPath string) {
	t.Helper()
	pkg := loadFixture(t, dir, pkgPath)
	wants := collectWants(t, pkg.Fset, pkg.Files)
	diags, err := lint.RunAnalyzers([]*lint.Package{pkg}, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		if !claim(wants, d) {
			t.Errorf("%s: unexpected diagnostic: %s", a.Name, d)
		}
	}
	for _, w := range wants {
		if !w.claimed {
			t.Errorf("%s: %s:%d: no diagnostic matched want %q", a.Name, w.file, w.line, w.re)
		}
	}
}

// Collect type-checks the fixture directory as package pkgPath, runs
// the analyzer, and returns the raw diagnostics without matching them
// against expectation comments. It exists for negative tests: loading
// the same fixture under a package identity outside a rule's configured
// scope and asserting which findings disappear.
//
//anchorlint:ignore testonly the off-scope fixture checks of the ctxflow and faultsite tests in internal/lint
func Collect(t *testing.T, a *lint.Analyzer, dir, pkgPath string) []lint.Diagnostic {
	t.Helper()
	pkg := loadFixture(t, dir, pkgPath)
	diags, err := lint.RunAnalyzers([]*lint.Package{pkg}, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	return diags
}

// loadFixture parses and type-checks the fixture directory as package
// pkgPath. Fixture _test.go files mirror the loader's treatment of real
// test files: parsed but not type-checked, visible to analyzers only as
// exercise evidence (faultsite's chaos-plan check), and never a source
// of findings or expectations.
func loadFixture(t *testing.T, dir, pkgPath string) *lint.Package {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixture files in %s (%v)", dir, err)
	}
	fset := token.NewFileSet()
	var files, testFiles []*ast.File
	importSet := map[string]bool{}
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		if strings.HasSuffix(p, "_test.go") {
			testFiles = append(testFiles, f)
			continue
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			importSet[path] = true
		}
	}
	var imports []string
	for p := range importSet {
		imports = append(imports, p)
	}
	sort.Strings(imports)
	exports, err := lint.ExportData(dir, imports...)
	if err != nil {
		t.Fatalf("resolving fixture imports: %v", err)
	}
	typed, info, err := lint.Check(pkgPath, fset, files, lint.ExportImporter(fset, exports))
	if err != nil {
		t.Fatalf("fixtures must type-check: %v", err)
	}
	return &lint.Package{PkgPath: pkgPath, Fset: fset, Files: files, TestFiles: testFiles, Types: typed, TypesInfo: info}
}

// collectWants extracts every `// want "re"...` expectation.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var ws []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := strings.Index(text, "want ")
				if i < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				specs := quoted.FindAllString(text[i+len("want "):], -1)
				if len(specs) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, text)
				}
				for _, s := range specs {
					pat, err := strconv.Unquote(s)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, s, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					ws = append(ws, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return ws
}

// claim marks the first unclaimed want matching the diagnostic.
func claim(wants []*want, d lint.Diagnostic) bool {
	for _, w := range wants {
		if !w.claimed && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.claimed = true
			return true
		}
	}
	return false
}
