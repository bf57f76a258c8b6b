package interproc

import (
	"go/ast"
	"go/types"
)

var errorType = types.Universe.Lookup("error").Type()

// errorResultIndex locates the error in call's result list: the index
// of the last error-typed result and the total result count, or
// (-1, n) when the callee returns no error.
func errorResultIndex(info *types.Info, call *ast.CallExpr) (idx, n int) {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return -1, 0
	}
	if tup, ok := tv.Type.(*types.Tuple); ok {
		idx = -1
		for i := 0; i < tup.Len(); i++ {
			if types.Identical(tup.At(i).Type(), errorType) {
				idx = i
			}
		}
		return idx, tup.Len()
	}
	if types.Identical(tv.Type, errorType) {
		return 0, 1
	}
	return -1, 1
}

// durableScan finds discarded durable-write errors. A durable call is
// one whose key is a base fact (journal append/compact, Store.Put,
// cluster Handoff/Dispatch) or whose Durable summary is set because it
// returns such an error. Its error result is dropped when the call is
// a bare expression statement, the operand of go/defer, or assigned to
// the blank identifier. Returning the error (directly, or via a local
// variable the error was assigned to) marks the function Durable so
// callers inherit the obligation; anything else — comparison, wrapping,
// assignment to a named variable — counts as checked, the same line
// the errcheck family draws.
func (m *Module) durableScan(fi *FuncInfo, record bool) bool {
	info := fi.info
	returns := false
	errObjs := map[types.Object]bool{}
	var drops []Drop

	insideFuncLit := func(stack []ast.Node) bool {
		for _, n := range stack {
			if _, ok := n.(*ast.FuncLit); ok {
				return true
			}
		}
		return false
	}
	// parentOf skips parens between the call and its consuming node.
	parentOf := func(stack []ast.Node) ast.Node {
		for i := len(stack) - 1; i >= 0; i-- {
			if _, ok := stack[i].(*ast.ParenExpr); ok {
				continue
			}
			return stack[i]
		}
		return nil
	}
	isBlank := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "_"
	}

	drop := func(call *ast.CallExpr, key, how string) {
		if record {
			drops = append(drops, Drop{
				Pos:  call.Pos(),
				What: "error from " + Short(key) + " " + how,
			})
		}
	}

	InspectStack(fi.decl.Body, func(n ast.Node, stack []ast.Node) bool {
		if ret, ok := n.(*ast.ReturnStmt); ok && !insideFuncLit(stack) {
			for _, r := range ret.Results {
				if id, ok := ast.Unparen(r).(*ast.Ident); ok && errObjs[info.Uses[id]] {
					returns = true
				}
			}
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		key := CalleeOf(info, call)
		if key == "" || !m.durableFn(key) {
			return true
		}
		errIdx, nres := errorResultIndex(info, call)
		if errIdx < 0 {
			return true
		}
		switch p := parentOf(stack).(type) {
		case *ast.ExprStmt:
			drop(call, key, "is discarded")
		case *ast.GoStmt:
			if p.Call == call {
				drop(call, key, "is dropped by the go statement")
			}
		case *ast.DeferStmt:
			if p.Call == call {
				drop(call, key, "is dropped by the defer statement")
			}
		case *ast.ReturnStmt:
			if !insideFuncLit(stack) {
				returns = true
			}
		case *ast.AssignStmt:
			// Locate the targets this call feeds.
			if len(p.Rhs) == 1 && ast.Unparen(p.Rhs[0]) == call && len(p.Lhs) == nres {
				lhs := p.Lhs[errIdx]
				if isBlank(lhs) {
					drop(call, key, "is assigned to _")
				} else if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if obj := info.Defs[id]; obj != nil {
						errObjs[obj] = true
					} else if obj := info.Uses[id]; obj != nil {
						errObjs[obj] = true
					}
				}
			} else {
				for i, r := range p.Rhs {
					if ast.Unparen(r) != call || i >= len(p.Lhs) || nres != 1 {
						continue
					}
					if isBlank(p.Lhs[i]) {
						drop(call, key, "is assigned to _")
					} else if id, ok := ast.Unparen(p.Lhs[i]).(*ast.Ident); ok {
						if obj := info.Defs[id]; obj != nil {
							errObjs[obj] = true
						} else if obj := info.Uses[id]; obj != nil {
							errObjs[obj] = true
						}
					}
				}
			}
		}
		return true
	})

	if record {
		fi.Drops = drops
	}
	return returns
}
