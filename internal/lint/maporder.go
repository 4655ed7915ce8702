package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder enforces the ordered-iteration clause of the determinism
// contract: Go randomizes map iteration order, so a range over a map may
// not directly produce order-sensitive output. Three body shapes are
// order-sensitive: appending to a slice (unless the slice is sorted later
// in the same function — the collect-then-sort idiom), accumulating into a
// floating-point value (addition is not associative, so iteration order
// changes the rounded sum; writes indexed by the range key are exempt
// because each key is visited once), and I/O (bytes leave in map order).
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flags range-over-map bodies that append to a slice with no " +
		"following sort, accumulate floats, or perform I/O — the " +
		"cooc merge pattern, generalized",
	Run: runMapOrder,
}

// sortFuncs are the recognized deterministic-ordering calls: passing the
// appended slice to one of these after the loop discharges the finding.
var sortFuncs = map[[2]string]bool{
	{"sort", "Slice"}: true, {"sort", "SliceStable"}: true,
	{"sort", "Sort"}: true, {"sort", "Stable"}: true,
	{"sort", "Strings"}: true, {"sort", "Ints"}: true, {"sort", "Float64s"}: true,
	{"slices", "Sort"}: true, {"slices", "SortFunc"}: true,
	{"slices", "SortStableFunc"}: true,
}

// ioMethodNames are method names treated as I/O sinks inside a map range.
var ioMethodNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteTo": true, "Print": true, "Printf": true, "Println": true,
	"Encode": true,
}

// fmtPrintFuncs are fmt package-level output functions.
var fmtPrintFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func runMapOrder(pass *Pass) error {
	for _, file := range pass.Files {
		var fnStack []ast.Node
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				fnStack = append(fnStack, n)
				ast.Inspect(funcBody(n), walk)
				fnStack = fnStack[:len(fnStack)-1]
				return false
			case *ast.RangeStmt:
				if len(fnStack) == 0 {
					return true
				}
				if t := pass.TypesInfo.Types[n.X].Type; t == nil || !isMap(t) {
					return true
				}
				checkMapRange(pass, n, funcBody(fnStack[len(fnStack)-1]))
			}
			return true
		}
		for _, decl := range file.Decls {
			ast.Inspect(decl, walk)
		}
	}
	return nil
}

// funcBody returns the body block of a FuncDecl or FuncLit.
func funcBody(n ast.Node) ast.Node {
	switch n := n.(type) {
	case *ast.FuncDecl:
		if n.Body == nil {
			return &ast.BlockStmt{}
		}
		return n.Body
	case *ast.FuncLit:
		return n.Body
	}
	return &ast.BlockStmt{}
}

// isMap reports whether t's underlying type is a map.
func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRange inspects one range-over-map body for order-sensitive
// operations; fn is the enclosing function body searched for post-loop
// sorts.
func checkMapRange(pass *Pass, rng *ast.RangeStmt, fn ast.Node) {
	keyObj := rangeVarObj(pass.TypesInfo, rng.Key)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" &&
				pass.TypesInfo.Uses[id] == types.Universe.Lookup("append") && len(n.Args) > 0 {
				target := types.ExprString(n.Args[0])
				if !sortedAfter(pass.TypesInfo, fn, rng.End(), target) {
					pass.Reportf(n.Pos(),
						"append to %s inside map iteration with no following sort: element order is randomized per run",
						target)
				}
				return true
			}
			checkMapRangeIO(pass, n)
		case *ast.AssignStmt:
			checkMapRangeFloat(pass, n, rng, keyObj)
		}
		return true
	})
}

// checkMapRangeFloat flags compound floating-point accumulation whose
// result depends on iteration order.
func checkMapRangeFloat(pass *Pass, as *ast.AssignStmt, rng *ast.RangeStmt, keyObj types.Object) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return
	}
	lhs := as.Lhs[0]
	t := pass.TypesInfo.Types[lhs].Type
	if t == nil || !isFloat(t) {
		return
	}
	// acc[k] += v with k the range key touches each accumulator slot
	// exactly once per iteration, so order cannot change the sum.
	if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && mentionsObj(pass.TypesInfo, ix.Index, keyObj) {
		return
	}
	// A variable declared inside the loop body resets every iteration.
	if base, _ := capturedBase(pass.TypesInfo, lhs, rng.Body.Pos(), rng.Body.End()); base != nil {
		if obj := pass.TypesInfo.Uses[base]; obj != nil && declaredWithin(obj, rng.Body.Pos(), rng.Body.End()) {
			return
		}
	}
	pass.Reportf(as.Pos(),
		"floating-point accumulation into %s inside map iteration: iteration order changes the rounded sum; iterate sorted keys",
		types.ExprString(lhs))
}

// checkMapRangeIO flags I/O calls inside a map range body.
func checkMapRangeIO(pass *Pass, call *ast.CallExpr) {
	if pkgPath, name, ok := pkgFunc(pass.TypesInfo, call); ok {
		if pkgPath == "fmt" && fmtPrintFuncs[name] {
			pass.Reportf(call.Pos(),
				"fmt.%s inside map iteration: output order is randomized per run; collect and sort first", name)
		}
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !ioMethodNames[sel.Sel.Name] {
		return
	}
	if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			pass.Reportf(call.Pos(),
				"%s call inside map iteration: output order is randomized per run; collect and sort first", sel.Sel.Name)
		}
	}
}

// sortedAfter reports whether the enclosing function body contains, after
// pos, a recognized sort call whose subject is the given expression.
func sortedAfter(info *types.Info, fn ast.Node, pos token.Pos, target string) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || found {
			return !found
		}
		pkgPath, name, ok := pkgFunc(info, call)
		if !ok || !sortFuncs[[2]string{pkgPath, name}] || len(call.Args) == 0 {
			return true
		}
		if sortSubject(call.Args[0], target) {
			found = true
		}
		return !found
	})
	return found
}

// sortSubject reports whether a sort call's first argument is the target
// expression, directly or through a single-argument wrapper such as a
// sort.Interface conversion (sort.Sort(byLen(keys))).
func sortSubject(arg ast.Expr, target string) bool {
	if types.ExprString(arg) == target {
		return true
	}
	if call, ok := ast.Unparen(arg).(*ast.CallExpr); ok && len(call.Args) == 1 {
		return types.ExprString(call.Args[0]) == target
	}
	return false
}

// rangeVarObj resolves a range clause variable (key or value) to its
// object, handling both := definitions and = assignments.
func rangeVarObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}
