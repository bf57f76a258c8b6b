package interproc

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockScan finds operations that can block — RPC/network calls, fsync,
// sleeps, channel waits — inside a critical section of the serve
// admission mutex. The admission mutex is identified structurally: a
// sync.Mutex reached through a selector or identifier named "jmu"
// (Server.jmu in internal/serve; fixtures mirror the shape). Other
// mutexes are ignored: the sanctioned lock order jmu → cmu → job.mu
// means nested acquisition is design, not defect.
//
// The walker tracks the held state through straight-line code. Branches
// are scanned with the entry state; a branch that terminates (returns,
// panics, breaks) does not leak its lock transitions into the
// fall-through path, and when the surviving branches disagree the state
// degrades to "not held" — under-reporting, never false positives.
// `defer jmu.Unlock()` holds to the end of the function. Function
// literal bodies and go statements are skipped: the spawned goroutine
// does not hold the caller's lock.
func (m *Module) lockScan(fi *FuncInfo) {
	info := fi.info
	var ops []LockedOp

	// Allows are NOT consulted here: the analyzer reports every locked
	// operation and the driver's Suppress honors (and marks used) the
	// //reprolint:allow lockheld directives. The famBlock cut applies
	// only to summary propagation during collect.
	flag := func(pos token.Pos, what string) {
		ops = append(ops, LockedOp{Pos: pos, What: what})
	}

	// check scans one statement or expression (already known to execute
	// with jmu held) for blocking operations.
	var check func(n ast.Node)
	check = func(n ast.Node) {
		if n == nil {
			return
		}
		InspectStack(n, func(x ast.Node, stack []ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false
			case *ast.CallExpr:
				if _, ok := jmuOp(info, x); ok {
					return true
				}
				key := CalleeOf(info, x)
				if key != "" && m.BlockTainted(key) {
					flag(x.Pos(), "call to "+Short(key)+" may block ("+m.BlockChain(key)+") while holding the admission mutex jmu")
				}
			case *ast.SendStmt:
				if !isSelectComm(stack, x) {
					flag(x.Pos(), "channel send while holding the admission mutex jmu")
				}
			case *ast.UnaryExpr:
				if x.Op == token.ARROW && !isSelectComm(stack, x) {
					flag(x.Pos(), "channel receive while holding the admission mutex jmu")
				}
			case *ast.SelectStmt:
				if !hasDefaultClause(x) {
					flag(x.Pos(), "select without default blocks while holding the admission mutex jmu")
				}
				// Clause bodies run after the select commits; they still
				// hold the lock and are reached by this same walk.
			}
			return true
		})
	}

	// scanStmt threads the held state through s and returns the state
	// after it.
	var scanStmt func(s ast.Stmt, held bool) bool
	scanList := func(stmts []ast.Stmt, held bool) bool {
		for _, s := range stmts {
			held = scanStmt(s, held)
		}
		return held
	}
	// merge reconciles the held state after divergent paths: agreement
	// propagates, disagreement degrades to not-held (no false positives
	// downstream of a conditional unlock).
	merge := func(states ...bool) bool {
		all := true
		for _, s := range states {
			all = all && s
		}
		return all
	}
	scanStmt = func(s ast.Stmt, held bool) bool {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if op, ok := jmuOp(info, call); ok {
					return op == "Lock"
				}
			}
			if held {
				check(s)
			}
			return held
		case *ast.DeferStmt:
			// defer jmu.Unlock(): held for the remainder of the body.
			// Other deferred calls run at exit, possibly after the
			// unlock — not modeled, not flagged.
			return held
		case *ast.GoStmt:
			return held
		case *ast.BlockStmt:
			return scanList(s.List, held)
		case *ast.IfStmt:
			if held {
				check(s.Init)
				check(s.Cond)
			}
			afterBody := scanList(s.Body.List, held)
			if terminates(s.Body) {
				afterBody = held
			}
			afterElse := held
			if s.Else != nil {
				switch e := s.Else.(type) {
				case *ast.BlockStmt:
					afterElse = scanList(e.List, held)
					if terminates(e) {
						afterElse = held
					}
				case *ast.IfStmt:
					afterElse = scanStmt(e, held)
				}
			}
			return merge(afterBody, afterElse)
		case *ast.ForStmt:
			if held {
				check(s.Init)
				check(s.Cond)
				check(s.Post)
			}
			after := scanList(s.Body.List, held)
			return merge(held, after)
		case *ast.RangeStmt:
			if held {
				check(s.X)
			}
			after := scanList(s.Body.List, held)
			return merge(held, after)
		case *ast.SwitchStmt:
			if held {
				check(s.Init)
				check(s.Tag)
			}
			states := []bool{held}
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					after := scanList(cc.Body, held)
					if !terminatesList(cc.Body) {
						states = append(states, after)
					}
				}
			}
			return merge(states...)
		case *ast.TypeSwitchStmt:
			if held {
				check(s.Init)
				check(s.Assign)
			}
			states := []bool{held}
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					after := scanList(cc.Body, held)
					if !terminatesList(cc.Body) {
						states = append(states, after)
					}
				}
			}
			return merge(states...)
		case *ast.SelectStmt:
			if held {
				check(s)
				return held
			}
			// Not held: clause bodies may lock; scan them for nested
			// regions but keep the entry state afterwards (which clause
			// ran is unknown).
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					scanList(cc.Body, held)
				}
			}
			return held
		case *ast.LabeledStmt:
			return scanStmt(s.Stmt, held)
		default:
			if held {
				check(s)
			}
			return held
		}
	}

	scanList(fi.decl.Body.List, false)
	fi.LockedOps = ops
}

// terminates reports whether the block always transfers control out
// (return, branch, panic) as its final statement.
func terminates(b *ast.BlockStmt) bool { return terminatesList(b.List) }

func terminatesList(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// jmuOp recognizes jmu.Lock / jmu.Unlock: a Lock or Unlock selector
// call whose receiver chain ends in an identifier or field named "jmu"
// of type sync.Mutex.
func jmuOp(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if sel.Sel.Name != "Lock" && sel.Sel.Name != "Unlock" {
		return "", false
	}
	var name string
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		name = x.Sel.Name
	case *ast.Ident:
		name = x.Name
	default:
		return "", false
	}
	if name != "jmu" {
		return "", false
	}
	t := info.Types[sel.X].Type
	if t == nil {
		return "", false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	if named.Obj().Pkg().Path() != "sync" || named.Obj().Name() != "Mutex" {
		return "", false
	}
	return sel.Sel.Name, true
}
