package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// TestOnly keeps the module-private API from outgrowing its use. Nothing
// outside the module can import an internal/ package, so an exported
// function or method there that no non-test file references serves only
// tests. Such a name is deleted, moved into its package's _test.go files,
// or kept with a directive that names the tests sharing it; the stale-
// directive check retires that directive once the name gains a real
// caller. Methods that implement an interface are exempt: their callers
// reach them through it. The rule sees only the loaded packages' callers,
// so it needs the whole module loaded.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc: "flags exported functions, and exported methods of exported types, in internal/ " +
		"packages that no non-test code references (delete them, move them into _test.go " +
		"files, or name their test users in a directive); methods implementing an " +
		"interface are exempt",
	RunModule: runTestOnly,
}

func runTestOnly(mp *ModulePass) error {
	used := referencedFuncs(mp.Pkgs)
	ifaces := interfaceMethods(mp.Pkgs)
	for _, pkg := range mp.Pkgs {
		if !strings.Contains(pkg.PkgPath, "/internal/") {
			continue
		}
		for _, fd := range funcDecls(pkg) {
			fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || !fn.Exported() || used[fn.FullName()] {
				continue
			}
			name := pkg.Types.Name() + "." + fn.Name()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				named := receiverNamed(recv.Type())
				if named == nil || !named.Obj().Exported() || implementsInterface(named, fn, ifaces) {
					continue
				}
				name = pkg.Types.Name() + "." + named.Obj().Name() + "." + fn.Name()
			}
			mp.Reportf(pkg, fd.Name.Pos(),
				"%s is exported from an internal package but no non-test code references it: delete it, move it into a _test.go file, or name its test users in //anchorlint:ignore testonly <users>",
				name)
		}
	}
	return nil
}

// referencedFuncs returns the FullName of every function and method that
// a non-test file references, as a call or as a value. A method reached
// through an instantiated generic type counts for its generic origin. A
// declaration's references to itself do not count: recursion is not a
// caller.
func referencedFuncs(pkgs []*Package) map[string]bool {
	used := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = pkg.TypesInfo.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if fn, ok := pkg.TypesInfo.Uses[id].(*types.Func); ok && fn.Origin() != self {
						used[fn.Origin().FullName()] = true
					}
					return true
				})
			}
		}
	}
	return used
}

// receiverNamed returns the named type of a method receiver, through a
// pointer.
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// interfaceMethods returns, for error, fmt.Stringer and every
// package-level interface declared in the loaded packages or in a package
// they import, its method set as method Id to signature. Signatures are
// compared as package-path-qualified strings: a loaded package and the
// export-data copy its importers see are distinct *types.Package objects,
// so types.Implements would miss an interface that mentions module types.
func interfaceMethods(pkgs []*Package) []map[string]string {
	out := []map[string]string{{"Error": "func() string"}, {"String": "func() string"}}
	seen := make(map[string]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p.Path()] {
			return
		}
		seen[p.Path()] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, methodSigs(tn.Type()))
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
	}
	return out
}

// methodSigs maps each method in t's pointer method set (which includes
// the value methods) from its Id to its signature string.
func methodSigs(t types.Type) map[string]string {
	if _, ok := t.Underlying().(*types.Interface); !ok {
		t = types.NewPointer(t)
	}
	ms := types.NewMethodSet(t)
	sigs := make(map[string]string, ms.Len())
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj()
		sigs[types.Id(m.Pkg(), m.Name())] = types.TypeString(m.Type(), func(p *types.Package) string { return p.Path() })
	}
	return sigs
}

// implementsInterface reports whether fn is a method by which its
// receiver type satisfies one of the interfaces.
func implementsInterface(named *types.Named, fn *types.Func, ifaces []map[string]string) bool {
	have := methodSigs(named)
	id := types.Id(fn.Pkg(), fn.Name())
	for _, want := range ifaces {
		if _, ok := want[id]; !ok {
			continue
		}
		all := true
		for mid, sig := range want {
			if have[mid] != sig {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}
