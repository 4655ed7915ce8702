package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// A Package is one loaded, parsed, and type-checked package ready for
// analysis.
type Package struct {
	// PkgPath is the import path.
	PkgPath string
	// Fset maps positions in Files.
	Fset *token.FileSet
	// Files are the parsed library sources (no _test.go files).
	Files []*ast.File
	// TestFiles are the package's _test.go sources, parsed but not
	// type-checked. Module-level analyzers read them for evidence of
	// exercise (the faultsite chaos-plan check), never for findings.
	TestFiles []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// TypesInfo records type and object resolution for Files.
	TypesInfo *types.Info
}

// listPackage is the subset of `go list -json` output the loader uses.
type listPackage struct {
	ImportPath   string
	Dir          string
	Name         string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Export       string
	DepOnly      bool
	Standard     bool
	Error        *struct{ Err string }
}

// goList runs `go list -export -json -deps` in dir and returns the decoded
// package stream. The -export flag makes the go tool compile (or fetch
// from the build cache) export data for every listed package, which is how
// the type checker resolves imports without golang.org/x/tools.
func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %w\n%s", patterns, err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %w", patterns, err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// goListMemo de-duplicates `go list -export` invocations within one
// process: every analyzer run and every linttest fixture that lists the
// same (dir, patterns) pair reuses the first result.
var goListMemo struct {
	sync.Mutex
	m map[string][]*listPackage
}

// goListCached is goList through goListMemo.
func goListCached(dir string, patterns []string) ([]*listPackage, error) {
	key := dir + "\x00" + strings.Join(patterns, "\x00")
	goListMemo.Lock()
	pkgs, ok := goListMemo.m[key]
	goListMemo.Unlock()
	if ok {
		return pkgs, nil
	}
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	goListMemo.Lock()
	if goListMemo.m == nil {
		goListMemo.m = make(map[string][]*listPackage)
	}
	goListMemo.m[key] = pkgs
	goListMemo.Unlock()
	return pkgs, nil
}

// Load lists patterns from dir (the module root, or "" for the current
// directory), parses every matched non-test package, and type-checks it
// against export data for its dependencies. Packages matched only as
// dependencies are used for imports but not analyzed.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goListCached(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := ExportImporter(fset, exports)
	var out []*Package
	for _, p := range listed {
		if p.DepOnly || p.Error != nil || len(p.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %w", filepath.Join(p.Dir, name), err)
			}
			files = append(files, f)
		}
		// Test files are parsed (for the chaos-plan exercise check) but
		// not type-checked: their dependencies are not in the -export
		// closure, and no analyzer reports findings in them.
		var testFiles []*ast.File
		for _, name := range append(append([]string{}, p.TestGoFiles...), p.XTestGoFiles...) {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %w", filepath.Join(p.Dir, name), err)
			}
			testFiles = append(testFiles, f)
		}
		pkg, info, err := Check(p.ImportPath, fset, files, imp)
		if err != nil {
			return nil, err
		}
		out = append(out, &Package{
			PkgPath:   p.ImportPath,
			Fset:      fset,
			Files:     files,
			TestFiles: testFiles,
			Types:     pkg,
			TypesInfo: info,
		})
	}
	return out, nil
}

// ExportData lists the given packages from dir and returns the map of
// import path to compiler export-data file for them and all their
// dependencies. The lint/linttest harness uses it to type-check fixture
// files that live under testdata (where go list patterns cannot reach).
func ExportData(dir string, patterns ...string) (map[string]string, error) {
	if len(patterns) == 0 {
		return map[string]string{}, nil
	}
	listed, err := goListCached(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// ExportImporter returns a go/types importer that resolves import paths
// through the supplied map of import path to compiler export-data file (as
// produced by `go list -export`).
func ExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// Check type-checks one package's files with full object and selection
// resolution, returning the package and its types.Info.
func Check(pkgPath string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type-checking %s: %w", pkgPath, err)
	}
	return pkg, info, nil
}
