// Package interproc builds the module-wide call graph and per-function
// summaries that back reprolint's interprocedural analyzers
// (DESIGN.md §15). The existing single-package analyzers see one
// statement at a time; the contracts they guard — determinism,
// durability, admission-path lock discipline — are routinely broken one
// call away from the statement that matters: a time.Now two helpers
// deep, an arena pointer laundered through a local struct, a journal
// append whose error a refactored helper drops.
//
// Build runs four phases over every loaded package:
//
//  1. collect: one FuncInfo per function declaration, recording call
//     sites (with go-statement asynchrony), channel operations, and
//     which //reprolint:allow directives cut a site out of summary
//     propagation (an allowed site must not re-taint every caller).
//  2. propagate: bottom-up fixpoint of the boolean summary lattice —
//     Clock (transitively reads the wall clock) and Block (may block:
//     sleeps, network, fsync, channel waits). Operational packages
//     (serve, store, runner, metrics, cluster) are a sanctioned clock
//     boundary and stay Clock-clean.
//  3. dataflow: per-function intra-procedural scans iterated to a
//     fixpoint for the value-flow summaries — Arena (returns memory
//     aliasing the simulation arena) and Durable (returns an error
//     originating at a durable write).
//  4. reportables: with summaries stable, a final scan records the
//     per-function findings the analyzers surface — arena escapes,
//     dropped durable errors, and blocking operations inside an
//     admission-mutex (jmu) critical section.
//
// Soundness caveats are deliberate and documented in DESIGN.md §15:
// dynamic calls through function values and interface methods are
// unresolved (the callee key names the interface, not implementations),
// function literals are attributed to their enclosing declaration,
// taint passed through parameters is not tracked (only through return
// values), and branch merges in the lock scanner favor no-false-
// positives over completeness.
package interproc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// modulePath mirrors lint.modulePath; interproc cannot import lint
// (lint imports interproc).
const modulePath = "repro"

// OperationalClockPkgs are the packages where wall-clock reads are the
// point: the serve daemon and its client (timeouts, backoff), the disk
// store (mtimes), the worker pool, the metrics layer (latency
// observation) and the cluster layer (heartbeats, probe timeouts,
// hedging budgets). They are both the wallclock scope exclusion and a
// propagation boundary: calls into them never taint a simulation
// caller with Clock.
var OperationalClockPkgs = []string{
	modulePath + "/internal/serve",
	modulePath + "/internal/store",
	modulePath + "/internal/runner",
	modulePath + "/internal/metrics",
	modulePath + "/internal/cluster",
}

// ArenaAdoptingPkgs run simulations through reusable arenas and must
// treat hypervisor-owned state as borrowed (DESIGN.md §11). They are
// the arenaretain scope, and only they (plus the arenaescape fixture
// tree) get arena dataflow scans; packages below the arena seam (hv,
// core, des, ...) own or copy that memory legitimately.
var ArenaAdoptingPkgs = []string{
	modulePath + "/internal/engine",
	modulePath + "/internal/experiments",
	modulePath + "/internal/sweep",
	modulePath + "/internal/faults",
	modulePath + "/internal/serve",
	modulePath + "/internal/campaign",
	modulePath + "/internal/diffuzz",
}

// family indexes the summary a //reprolint:allow directive cuts:
// allowing a finding at a call site must also stop that site from
// tainting every transitive caller, or the suppression would just move
// the diagnostic up the call chain.
type family int

const (
	famClock family = iota
	famBlock
	famArena
	famDurable
	numFamilies
)

// familyOf maps analyzer names to the summary family their allows cut.
var familyOf = map[string]family{
	"wallclock":   famClock,
	"lockheld":    famBlock,
	"arenaretain": famArena,
	"durableerr":  famDurable,
}

// clockTimeFuncs are the time package entry points that read or wait
// on the host clock; clockRandOK are the math/rand constructors, fine
// because a locally seeded source is deterministic (only the implicitly
// seeded global functions are forbidden).
var clockTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

var clockRandOK = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true,
	"NewZipf": true,
}

// BaseClock reports whether key names a leaf function that reads host
// time or implicitly host-seeded randomness. These terminate clock
// chains: a call to one is wallclock's direct rule, a call that merely
// reaches one is its transitive rule.
func BaseClock(key string) bool {
	if name, ok := strings.CutPrefix(key, "time."); ok {
		return clockTimeFuncs[name]
	}
	if name, ok := strings.CutPrefix(key, "math/rand/v2."); ok {
		return !clockRandOK[name]
	}
	if name, ok := strings.CutPrefix(key, "math/rand."); ok {
		return !clockRandOK[name]
	}
	return false
}

// baseBlock names leaf operations that can block the calling goroutine:
// sleeps, network round trips, fsync, and synchronization waits.
// sync.Mutex.Lock is deliberately absent — the serve lock order
// jmu → cmu → job.mu is sanctioned design, and flagging nested
// acquisition would bury the real findings. The module-local entries
// keep fixture runs (where only the fixture tree is loaded, so no
// summaries exist for real packages) honest.
var baseBlock = map[string]bool{
	"time.Sleep":                              true,
	"(os.File).Sync":                          true,
	"(net/http.Client).Do":                    true,
	"(net/http.Client).Get":                   true,
	"(net/http.Client).Post":                  true,
	"(net/http.Client).PostForm":              true,
	"(net/http.Client).Head":                  true,
	"net/http.Get":                            true,
	"net/http.Post":                           true,
	"net/http.PostForm":                       true,
	"net/http.Head":                           true,
	"net.Dial":                                true,
	"net.DialTimeout":                         true,
	"(net.Dialer).Dial":                       true,
	"(net.Dialer).DialContext":                true,
	"(sync.WaitGroup).Wait":                   true,
	"(sync.Cond).Wait":                        true,
	modulePath + "/internal/cluster.Dispatch": true, // free funcs, if any
	"(" + modulePath + "/internal/cluster.Cluster).Dispatch":    true,
	"(" + modulePath + "/internal/cluster.Cluster).FetchResult": true,
	"(" + modulePath + "/internal/cluster.Cluster).Handoff":     true,
	"(" + modulePath + "/internal/serve.journal).append":        true,
	"(" + modulePath + "/internal/serve.journal).compact":       true,
}

// BaseBlock reports whether key names a leaf blocking operation.
func BaseBlock(key string) bool { return baseBlock[key] }

// baseArena names the two arena seams: core.Report's Result aliases the
// live trace log, and (*hv.System).Log hands out the arena-owned record
// slice directly.
var baseArena = map[string]bool{
	modulePath + "/internal/core.Report":          true,
	"(" + modulePath + "/internal/hv.System).Log": true,
}

// BaseArena reports whether key names an arena seam.
func BaseArena(key string) bool { return baseArena[key] }

// baseDurable names the durable-write leaves whose error results carry
// the no-acked-job-lost invariant (DESIGN.md §9): the write-ahead
// journal, the content-addressed store (EncodeFrame itself is
// infallible — the framed bytes persist via Store.Put), and the
// cluster RPCs that move acked work between nodes. The fixture journal
// stand-in keeps the durableerr fixture self-contained (the real
// serve.journal is unexported).
var baseDurable = map[string]bool{
	"(" + modulePath + "/internal/serve.journal).append":                        true,
	"(" + modulePath + "/internal/serve.journal).compact":                       true,
	"(" + modulePath + "/internal/store.Store).Put":                             true,
	"(" + modulePath + "/internal/cluster.Cluster).Handoff":                     true,
	"(" + modulePath + "/internal/cluster.Cluster).Dispatch":                    true,
	"(" + modulePath + "/internal/lint/testdata/src/durableerr.journal).append": true,
}

// BaseDurable reports whether key names a durable-write leaf.
func BaseDurable(key string) bool { return baseDurable[key] }

// CallSite is one static call recorded during collection.
type CallSite struct {
	Pos    token.Pos
	Callee string // stable key, "" when unresolvable (func values, type conversions)
	Async  bool   // evaluated on a goroutine spawned by a go statement
	cut    [numFamilies]bool
}

// chanOp is a channel operation that can block: a send or receive
// outside select, or a select with no default clause.
type chanOp struct {
	pos   token.Pos
	kind  string // "channel send", "channel receive", "select without default"
	async bool
	cut   bool // famBlock allow on the line
}

// Summary is the per-function boolean lattice, propagated bottom-up to
// a fixpoint.
type Summary struct {
	Clock   bool // transitively reads wall clock / global rand
	Block   bool // may block the calling goroutine
	Arena   bool // returns memory aliasing the simulation arena
	Durable bool // returns an error originating at a durable write

	clockVia string // next hop toward the base fact, for witness chains
	blockVia string
}

// LockedOp is a blocking operation found inside a jmu critical section.
type LockedOp struct {
	Pos  token.Pos
	What string
}

// Drop is a durable-write error that the function discards.
type Drop struct {
	Pos  token.Pos
	What string
}

// Escape is an arena-aliasing value stored somewhere that outlives the
// enclosing call: a struct field, package-level variable, map entry, or
// channel.
type Escape struct {
	Pos  token.Pos
	What string
}

// FuncInfo carries everything interproc knows about one function
// declaration.
type FuncInfo struct {
	Key     string
	Pkg     string
	Calls   []CallSite
	Summary Summary

	LockedOps []LockedOp
	Drops     []Drop
	Escapes   []Escape

	chans []chanOp
	decl  *ast.FuncDecl
	info  *types.Info
	fset  *token.FileSet
}

// Module is the analysis result over one load.Load call. The driver
// builds it once and hands it to every analyzer pass via
// analysis.Pass.Module.
type Module struct {
	funcs map[string]*FuncInfo
	byPkg map[string][]*FuncInfo
	all   []*FuncInfo                // deterministic order: sorted package, then source order
	cuts  map[string]map[family]bool // "file:line" → families cut by allows
}

// Key returns the stable cross-package identity of fn:
// "pkg/path.Name" for package functions, "(pkg/path.Recv).Name" for
// methods (receiver pointer-ness erased). A key stays stable across
// Load calls and importers, where *types.Func pointers need not.
func Key(fn *types.Func) string {
	fn = fn.Origin()
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		var recv string
		switch t := rt.(type) {
		case *types.Named:
			obj := t.Obj()
			if obj.Pkg() != nil {
				recv = obj.Pkg().Path() + "." + obj.Name()
			} else {
				recv = obj.Name() // universe types: error
			}
		default:
			recv = rt.String()
		}
		return "(" + recv + ")." + fn.Name()
	}
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// Short compresses a key for diagnostics: package paths shrink to their
// last segment ("repro/internal/serve.journalAccept" →
// "serve.journalAccept", "(os.File).Sync" stays).
func Short(key string) string {
	if key == "" {
		return "?"
	}
	if strings.HasPrefix(key, "channel ") || strings.HasPrefix(key, "select ") {
		return key
	}
	lastSeg := func(p string) string {
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	if rest, ok := strings.CutPrefix(key, "("); ok {
		if i := strings.Index(rest, ")."); i > 0 {
			recv, name := rest[:i], rest[i+2:]
			if j := strings.LastIndex(recv, "."); j > 0 {
				recv = lastSeg(recv[:j]) + "." + recv[j+1:]
			}
			return "(" + recv + ")." + name
		}
	}
	if j := strings.LastIndex(key, "."); j > 0 {
		return lastSeg(key[:j]) + "." + key[j+1:]
	}
	return key
}

// Build constructs the module summaries for pkgs. It never fails: a
// function it cannot model simply gets an empty (optimistic) summary,
// which is the documented soundness posture — reprolint under-reports
// rather than cries wolf.
func Build(pkgs []*load.Package) *Module {
	m := &Module{
		funcs: map[string]*FuncInfo{},
		byPkg: map[string][]*FuncInfo{},
		cuts:  map[string]map[family]bool{},
	}
	famKnown := map[string]bool{}
	for name := range familyOf {
		famKnown[name] = true
	}
	for _, pkg := range pkgs {
		allows, _ := analysis.ParseAllows(pkg.Fset, pkg.Syntax, famKnown)
		for _, al := range allows {
			fam := familyOf[al.Analyzer]
			// An allow covers diagnostics on its own line and the line
			// below (analysis.Suppress); cuts mirror that exactly.
			for _, line := range []int{al.Line, al.Line + 1} {
				k := fmt.Sprintf("%s:%d", al.File, line)
				if m.cuts[k] == nil {
					m.cuts[k] = map[family]bool{}
				}
				m.cuts[k][fam] = true
			}
		}
		for _, f := range pkg.Syntax {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{
					Key:  Key(obj),
					Pkg:  pkg.PkgPath,
					decl: fd,
					info: pkg.TypesInfo,
					fset: pkg.Fset,
				}
				m.collect(fi)
				m.funcs[fi.Key] = fi
				m.byPkg[pkg.PkgPath] = append(m.byPkg[pkg.PkgPath], fi)
			}
		}
	}
	paths := make([]string, 0, len(m.byPkg))
	for p := range m.byPkg {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		m.all = append(m.all, m.byPkg[p]...)
	}

	m.propagate()
	m.dataflow()
	return m
}

// Funcs returns the functions declared in the package at path, in
// source order.
func (m *Module) Funcs(path string) []*FuncInfo { return m.byPkg[path] }

// Lookup returns the FuncInfo for key, or nil.
func (m *Module) Lookup(key string) *FuncInfo { return m.funcs[key] }

// ClockTainted reports whether calling key reaches a wall-clock read:
// either key is itself a base fact or its propagated summary says so.
func (m *Module) ClockTainted(key string) bool {
	if BaseClock(key) {
		return true
	}
	if fi := m.funcs[key]; fi != nil {
		return fi.Summary.Clock
	}
	return false
}

// BlockTainted reports whether calling key may block.
func (m *Module) BlockTainted(key string) bool {
	if BaseBlock(key) {
		return true
	}
	if fi := m.funcs[key]; fi != nil {
		return fi.Summary.Block
	}
	return false
}

// durableFn reports whether key's error result originates at a durable
// write.
func (m *Module) durableFn(key string) bool {
	if BaseDurable(key) {
		return true
	}
	if fi := m.funcs[key]; fi != nil {
		return fi.Summary.Durable
	}
	return false
}

// arenaFn reports whether key returns arena-aliasing memory.
func (m *Module) arenaFn(key string) bool {
	if baseArena[key] {
		return true
	}
	if fi := m.funcs[key]; fi != nil {
		return fi.Summary.Arena
	}
	return false
}

// ClockChain renders the witness path from key to the clock read it
// reaches, e.g. "campaign.stamp → clockutil.Stamp → time.Now".
func (m *Module) ClockChain(key string) string { return m.chain(key, famClock) }

// BlockChain renders the witness path from key to the blocking leaf.
func (m *Module) BlockChain(key string) string { return m.chain(key, famBlock) }

func (m *Module) chain(key string, fam family) string {
	parts := []string{Short(key)}
	cur := key
	for range [8]int{} {
		fi := m.funcs[cur]
		if fi == nil {
			break // base fact: the chain ends at cur itself
		}
		var via string
		if fam == famClock {
			via = fi.Summary.clockVia
		} else {
			via = fi.Summary.blockVia
		}
		if via == "" {
			break
		}
		parts = append(parts, Short(via))
		cur = via
	}
	return strings.Join(parts, " → ")
}

// cutAt reports whether an allow of fam's family covers pos.
func (m *Module) cutAt(fset *token.FileSet, pos token.Pos, fam family) bool {
	p := fset.Position(pos)
	fams := m.cuts[fmt.Sprintf("%s:%d", p.Filename, p.Line)]
	return fams != nil && fams[fam]
}

// InspectStack walks root like ast.Inspect, also handing fn the stack
// of ancestor nodes (outermost first, excluding n).
func InspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// CalleeOf resolves the static callee of call to its key, or "" for
// dynamic calls (function values), conversions, and builtins.
func CalleeOf(info *types.Info, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return Key(fn)
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return Key(fn)
		}
	}
	return ""
}

// collect records fi's call sites and channel operations. Function
// literal bodies are attributed to the enclosing declaration; work
// spawned by go statements is marked Async (it reads the clock on the
// caller's behalf but does not block the caller).
func (m *Module) collect(fi *FuncInfo) {
	// First pass: mark the nodes that execute asynchronously — the call
	// of a `go f(...)` statement (arguments still evaluate in the
	// caller), and everything inside a `go func(){...}` literal body.
	async := map[ast.Node]bool{}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(x ast.Node) bool {
				if x != nil {
					async[x] = true
				}
				return true
			})
		} else {
			async[gs.Call] = true
		}
		return true
	})

	cutsFor := func(pos token.Pos) [numFamilies]bool {
		var c [numFamilies]bool
		for f := famClock; f < numFamilies; f++ {
			c[f] = m.cutAt(fi.fset, pos, f)
		}
		return c
	}

	InspectStack(fi.decl.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if callee := CalleeOf(fi.info, n); callee != "" {
				fi.Calls = append(fi.Calls, CallSite{
					Pos:    n.Pos(),
					Callee: callee,
					Async:  async[n],
					cut:    cutsFor(n.Pos()),
				})
			}
		case *ast.SendStmt:
			if !isSelectComm(stack, n) {
				fi.chans = append(fi.chans, chanOp{
					pos: n.Pos(), kind: "channel send",
					async: async[n], cut: m.cutAt(fi.fset, n.Pos(), famBlock),
				})
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !isSelectComm(stack, n) {
				fi.chans = append(fi.chans, chanOp{
					pos: n.Pos(), kind: "channel receive",
					async: async[n], cut: m.cutAt(fi.fset, n.Pos(), famBlock),
				})
			}
		case *ast.SelectStmt:
			if !hasDefaultClause(n) {
				fi.chans = append(fi.chans, chanOp{
					pos: n.Pos(), kind: "select without default",
					async: async[n], cut: m.cutAt(fi.fset, n.Pos(), famBlock),
				})
			}
		}
		return true
	})
}

// isSelectComm reports whether n sits inside the communication clause
// of an enclosing select statement (the select's readiness choice, not
// a blocking operation of its own).
func isSelectComm(stack []ast.Node, n ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		cc, ok := stack[i].(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm != nil && n.Pos() >= cc.Comm.Pos() && n.End() <= cc.Comm.End() {
			return true
		}
		return false
	}
	return false
}

func hasDefaultClause(sel *ast.SelectStmt) bool {
	for _, s := range sel.Body.List {
		if cc, ok := s.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// clockForcedClean reports whether pkg sits on the sanctioned side of
// the wall-clock boundary: its functions may read time freely and
// never propagate Clock to callers.
func clockForcedClean(pkg string) bool {
	for _, p := range OperationalClockPkgs {
		if pkg == p || strings.HasPrefix(pkg, p+"/") {
			return true
		}
	}
	return false
}

// arenaScanPkg reports whether pkg gets the arena dataflow scan.
func arenaScanPkg(pkg string) bool {
	for _, p := range ArenaAdoptingPkgs {
		if pkg == p || strings.HasPrefix(pkg, p+"/") {
			return true
		}
	}
	return strings.Contains(pkg, "testdata/src/arenaescape")
}

// propagate runs the Clock/Block fixpoint over call edges. Channel
// operations and base-fact calls seed Block; each round then lifts
// callee summaries into callers until nothing changes. Iteration is in
// deterministic (m.all) order so witness chains are stable.
func (m *Module) propagate() {
	for _, fi := range m.all {
		for _, ch := range fi.chans {
			if ch.async || ch.cut {
				continue
			}
			fi.Summary.Block = true
			fi.Summary.blockVia = ch.kind
			break
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range m.all {
			if !fi.Summary.Clock && !clockForcedClean(fi.Pkg) {
				for _, c := range fi.Calls {
					if c.cut[famClock] || !m.ClockTainted(c.Callee) {
						continue
					}
					fi.Summary.Clock = true
					fi.Summary.clockVia = c.Callee
					changed = true
					break
				}
			}
			if !fi.Summary.Block {
				for _, c := range fi.Calls {
					if c.Async || c.cut[famBlock] || !m.BlockTainted(c.Callee) {
						continue
					}
					fi.Summary.Block = true
					fi.Summary.blockVia = c.Callee
					changed = true
					break
				}
			}
		}
	}
}

// dataflow iterates the intra-procedural Arena/Durable scans to a
// fixpoint (a helper's return summary can depend on another helper's),
// then runs the final recording pass that fills Escapes, Drops and
// LockedOps.
func (m *Module) dataflow() {
	for changed := true; changed; {
		changed = false
		for _, fi := range m.all {
			if arenaScanPkg(fi.Pkg) && !fi.Summary.Arena && m.arenaScan(fi, false) {
				fi.Summary.Arena = true
				changed = true
			}
			if !fi.Summary.Durable && m.durableScan(fi, false) {
				fi.Summary.Durable = true
				changed = true
			}
		}
	}
	for _, fi := range m.all {
		if arenaScanPkg(fi.Pkg) {
			m.arenaScan(fi, true)
		}
		m.durableScan(fi, true)
		m.lockScan(fi)
	}
}
