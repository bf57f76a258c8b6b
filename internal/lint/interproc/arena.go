package interproc

import (
	"go/ast"
	"go/token"
	"go/types"
)

// arenaScan is the intra-procedural escape analysis for arena-owned
// memory. A value is tainted when it aliases the simulation arena:
// directly from a base fact (core.Report, (*hv.System).Log), from a
// callee whose Arena summary is set, or derived from a tainted value
// through selection, indexing, slicing, address-taking, composite
// literals (the "laundered through a local struct" case), range
// statements and builtin append.
//
// A tainted value stored into a struct field, package-level variable,
// map entry or channel escapes the current call and is recorded (on
// the recording pass); a tainted value returned sets the function's
// Arena summary so callers inherit the taint. Taint through call
// arguments is not tracked (documented caveat, DESIGN.md §15).
//
// The scan iterates until the local taint set stops growing, so
// ordinary forward def-use chains and simple cycles both converge; the
// recording pass reruns once more with the stable set so escapes are
// complete.
func (m *Module) arenaScan(fi *FuncInfo, record bool) bool {
	info := fi.info
	tainted := map[types.Object]bool{}
	returns := false
	var escapes []Escape
	seen := map[token.Pos]bool{}

	var taintOf func(e ast.Expr) bool
	taintOf = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			obj := info.Uses[e]
			return obj != nil && tainted[obj]
		case *ast.CallExpr:
			if k := CalleeOf(info, e); k != "" {
				if m.cutAt(fi.fset, e.Pos(), famArena) {
					return false // allowed alias: deliberately borrowed, not propagated
				}
				return m.arenaFn(k)
			}
			// Builtins: append carries element taint into the result.
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
				for _, a := range e.Args {
					if taintOf(a) {
						return true
					}
				}
			}
			return false
		case *ast.SelectorExpr:
			return taintOf(e.X)
		case *ast.IndexExpr:
			return taintOf(e.X)
		case *ast.SliceExpr:
			return taintOf(e.X)
		case *ast.StarExpr:
			return taintOf(e.X)
		case *ast.UnaryExpr:
			return taintOf(e.X)
		case *ast.ParenExpr:
			return taintOf(e.X)
		case *ast.TypeAssertExpr:
			return taintOf(e.X)
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if taintOf(kv.Value) {
						return true
					}
				} else if taintOf(el) {
					return true
				}
			}
			return false
		}
		return false
	}

	escape := func(pos token.Pos, what string) {
		if record && !seen[pos] {
			seen[pos] = true
			escapes = append(escapes, Escape{Pos: pos, What: what})
		}
	}

	// objOf resolves an assignment target identifier to its object,
	// whether this statement defines it (:=) or reuses it (=).
	objOf := func(id *ast.Ident) types.Object {
		if obj := info.Defs[id]; obj != nil {
			return obj
		}
		return info.Uses[id]
	}

	added := false
	taint := func(obj types.Object) {
		if obj != nil && !tainted[obj] {
			tainted[obj] = true
			added = true
		}
	}

	// sink classifies one assignment target receiving a tainted value.
	sink := func(lhs ast.Expr) {
		switch lhs := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				return
			}
			obj := objOf(lhs)
			if obj == nil {
				return
			}
			if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				escape(lhs.Pos(), "package-level variable "+lhs.Name)
				return
			}
			taint(obj)
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
				escape(lhs.Pos(), "struct field "+lhs.Sel.Name)
				// The rooted value is now tainted too: reading the field
				// back must not launder the alias away.
				if id, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
					taint(objOf(id))
				}
			}
		case *ast.IndexExpr:
			t := info.Types[lhs.X].Type
			if t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					escape(lhs.Pos(), "map entry")
					return
				}
			}
			// Slice/array element store: propagate taint to the root so
			// a later store of the container still reports.
			if id, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
				taint(objOf(id))
			}
		}
	}

	insideFuncLit := func(stack []ast.Node) bool {
		for _, n := range stack {
			if _, ok := n.(*ast.FuncLit); ok {
				return true
			}
		}
		return false
	}

	scan := func() {
		InspectStack(fi.decl.Body, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
					// Multi-value: one tainted producer taints every target.
					if taintOf(n.Rhs[0]) {
						for _, lhs := range n.Lhs {
							sink(lhs)
						}
					}
					return true
				}
				for i, rhs := range n.Rhs {
					if i < len(n.Lhs) && taintOf(rhs) {
						sink(n.Lhs[i])
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if taintOf(v) {
						if i < len(n.Names) {
							taint(info.Defs[n.Names[i]])
						}
					}
				}
			case *ast.RangeStmt:
				if taintOf(n.X) {
					for _, v := range []ast.Expr{n.Key, n.Value} {
						if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
							taint(objOf(id))
						}
					}
				}
			case *ast.SendStmt:
				if taintOf(n.Value) {
					escape(n.Pos(), "a channel")
				}
			case *ast.ReturnStmt:
				if insideFuncLit(stack) {
					return true
				}
				for _, r := range n.Results {
					if taintOf(r) {
						returns = true
					}
				}
			}
			return true
		})
	}

	// Iterate to a local fixpoint: each round may discover new tainted
	// objects whose later uses only classify correctly on the next one.
	for range [4]int{} {
		added = false
		returns = false
		escapes = escapes[:0]
		for p := range seen {
			delete(seen, p)
		}
		scan()
		if !added {
			break
		}
	}
	if record {
		fi.Escapes = append(fi.Escapes[:0], escapes...)
	}
	return returns
}
