package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/interproc"
)

// detmapScope lists the determinism-critical packages: anything whose
// output is hashed into a cache key, rendered into a golden file, or
// exposed byte-identically (canonical scenario JSON, report encoders,
// SVG rendering, metrics exposition, serve cache-key construction).
var detmapScope = []string{
	modulePath + "/internal/core",
	modulePath + "/internal/report",
	modulePath + "/internal/viz",
	modulePath + "/internal/metrics",
	modulePath + "/internal/serve",
	modulePath + "/internal/campaign",
}

// Detmap flags `range` over a map in determinism-critical packages:
// Go randomizes map iteration order, so any encoded, rendered or
// hashed output assembled in iteration order diverges between two
// runs of the same (scenario, seed, revision) triple. The canonical
// collect-keys-then-sort idiom is recognized and allowed: a range
// whose body only appends to slices that are each passed to a
// sort.*/slices.Sort* call later in the same function.
var Detmap = &analysis.Analyzer{
	Name: "detmap",
	Doc: "flags map iteration in determinism-critical packages " +
		"(internal/core, internal/report, internal/viz, internal/metrics, " +
		"internal/serve, internal/campaign) unless the keys are collected and sorted",
	Run: runDetmap,
}

func runDetmap(pass *analysis.Pass) (interface{}, error) {
	path := pass.Pkg.Path()
	if !pkgMatches(path, detmapScope) && !isFixtureFor(path, "detmap") {
		return nil, nil
	}
	for _, file := range pass.Files {
		interproc.InspectStack(file, func(n ast.Node, stack []ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			// With neither key nor value bound, the body cannot
			// observe the iteration order.
			if rs.Key == nil && rs.Value == nil {
				return true
			}
			if isSortedKeyCollection(pass, rs, stack) {
				return true
			}
			pass.Reportf(rs.For,
				"range over map has nondeterministic iteration order in determinism-critical package %s; iterate sorted keys instead (collect keys, sort, then index)",
				path)
			return true
		})
	}
	return nil, nil
}

// isSortedKeyCollection reports whether rs is the canonical
// collect-then-sort idiom: every statement in its body is
// `s = append(s, ...)` for some local slice s, and each such s is
// passed to a recognized sort call after the loop in the enclosing
// function.
func isSortedKeyCollection(pass *analysis.Pass, rs *ast.RangeStmt, stack []ast.Node) bool {
	if len(rs.Body.List) == 0 {
		return false
	}
	targets := map[types.Object]bool{}
	for _, stmt := range rs.Body.List {
		obj := appendTarget(pass, stmt)
		if obj == nil {
			return false
		}
		targets[obj] = true
	}
	fnBody := enclosingFuncBody(stack)
	if fnBody == nil {
		return false
	}
	for obj := range targets {
		if !sortedAfter(pass, fnBody, obj, rs.End()) {
			return false
		}
	}
	return true
}

// appendTarget returns the object of s when stmt has the exact shape
// `s = append(s, ...)` (or `s = append(s, ...)` with :=), else nil.
func appendTarget(pass *analysis.Pass, stmt ast.Stmt) types.Object {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" || len(call.Args) < 2 {
		return nil
	}
	if b, ok := pass.TypesInfo.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	arg0, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	lobj := objOf(pass, lhs)
	if lobj == nil || lobj != pass.TypesInfo.Uses[arg0] {
		return nil
	}
	return lobj
}

func objOf(pass *analysis.Pass, id *ast.Ident) types.Object {
	if o := pass.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return pass.TypesInfo.Defs[id]
}

// enclosingFuncBody returns the body of the innermost function literal
// or declaration on the ancestor stack.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// sortedAfter reports whether obj is handed to a sort.* / slices.Sort*
// call positioned after `after` within body.
func sortedAfter(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object, after token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgPath, ok := pkgNameOf(pass, sel.X)
		if !ok {
			return true
		}
		switch {
		case pkgPath == "sort" && sortFuncs[sel.Sel.Name],
			pkgPath == "slices" && slicesSortFuncs[sel.Sel.Name]:
		default:
			return true
		}
		if arg, ok := call.Args[0].(*ast.Ident); ok && pass.TypesInfo.Uses[arg] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

var sortFuncs = map[string]bool{
	"Strings": true, "Ints": true, "Float64s": true,
	"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
}

var slicesSortFuncs = map[string]bool{
	"Sort": true, "SortFunc": true, "SortStableFunc": true,
}
