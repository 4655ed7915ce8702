package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// A Call is one static call site inside a function body.
type Call struct {
	// Callee is the called function's FullName.
	Callee string
	// Pos locates the call expression.
	Pos token.Pos
}

// A FuncNode is one function or method declared in a loaded package,
// with the static calls found in its body. Function literals (including
// goroutine bodies) are attributed to the enclosing declaration: a taint
// or blocking call inside a closure is the enclosing function's problem.
type FuncNode struct {
	// Name is the types.Func FullName — "pkgpath.Func" or
	// "(*pkgpath.Type).Method" — which is identical across packages even
	// though export-data importing gives each importer its own
	// *types.Package objects.
	Name string
	// Pkg is the defining package.
	Pkg *Package
	// Decl is the function's declaration.
	Decl *ast.FuncDecl
	// Calls lists call sites in source order, one entry per site.
	Calls []Call
}

// A CallGraph indexes every function declared in the loaded packages by
// FullName, with forward call edges on the nodes. Callees outside the
// loaded set (stdlib, generated code) appear as edge targets but have no
// node.
type CallGraph struct {
	// Funcs maps FullName to the declaring node.
	Funcs map[string]*FuncNode
}

// BuildCallGraph assembles the static call graph over the loaded
// packages. Dynamic calls through interface values resolve to the
// interface method's FullName (no devirtualization); calls through
// function-typed variables produce no edge.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Funcs: make(map[string]*FuncNode)}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Name: obj.FullName(), Pkg: pkg, Decl: fd}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee, ok := CalleeName(pkg.TypesInfo, call); ok {
						node.Calls = append(node.Calls, Call{Callee: callee, Pos: call.Pos()})
					}
					return true
				})
				g.Funcs[node.Name] = node
			}
		}
	}
	return g
}

// CalleeName resolves a call expression to the called function's
// FullName. Conversions, builtins, and calls through function-typed
// values yield ok=false.
func CalleeName(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := Callee(info, call)
	if fn == nil {
		return "", false
	}
	return fn.FullName(), true
}

// Callee resolves a call expression to the *types.Func it invokes
// (package function or method), or nil when the call target is not a
// statically known function.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch e := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[e].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			if sel.Kind() == types.MethodVal {
				if fn, ok := sel.Obj().(*types.Func); ok {
					return fn
				}
			}
			return nil
		}
		if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := e.X.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				return fn
			}
		}
	}
	return nil
}
