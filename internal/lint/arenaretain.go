package lint

import (
	"fmt"
	"go/ast"

	"repro/internal/lint/analysis"
	"repro/internal/lint/interproc"
)

// Arenaretain flags code in arena-adopting packages
// (interproc.ArenaAdoptingPkgs, DESIGN.md §11) that retains pointers
// into arena-owned memory past the point where the arena may be Reset
// and reused. A Result built from such memory would silently change
// bytes when the worker's arena is handed the next scenario — exactly
// the use-after-reset class the zero-alloc engine core makes possible.
//
// It has two rules over one table of arena seams (interproc.BaseArena).
// The call-site rule flags every call to a seam: core.Report (its
// Result aliases the live tracerec.Log) and (*hv.System).Log (the
// record slice is recycled by Reinit). The escape rule follows the
// value: any expression aliasing a seam's result — through helper
// returns, field selection, slicing, composite-literal laundering —
// that is stored into a struct field, package-level variable, map
// entry or channel. Arena-adopting code returns results via
// core.ReportOwned, which deep-copies the records into caller-owned
// memory; a local read that provably finishes before the arena's next
// Reset carries a reasoned allow, which also cuts the alias out of the
// escape dataflow.
var Arenaretain = &analysis.Analyzer{
	Name: "arenaretain",
	Doc: "arena-adopting packages (engine, experiments, sweep, faults, serve, campaign, " +
		"diffuzz) must not retain arena-owned memory: use core.ReportOwned instead of " +
		"core.Report, do not hold (*hv.System).Log() results across arena reuse, and never " +
		"store anything derived from them into fields, globals, maps or channels",
	Run: runArenaretain,
}

func runArenaretain(pass *analysis.Pass) (interface{}, error) {
	mod, ok := pass.Module.(*interproc.Module)
	if !ok {
		return nil, fmt.Errorf("arenaretain needs the interprocedural module summaries (driver did not set Pass.Module)")
	}
	path := pass.Pkg.Path()
	if !pkgMatches(path, interproc.ArenaAdoptingPkgs) && !isFixtureFor(path, "arenaretain") &&
		!isFixtureFor(path, "arenaescape") && !isFixtureFor(path, "allowmulti") {
		return nil, nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			key := interproc.CalleeOf(pass.TypesInfo, call)
			if !interproc.BaseArena(key) {
				return true
			}
			if interproc.Short(key) == "core.Report" {
				pass.Reportf(call.Pos(),
					"core.Report aliases the arena-owned trace log; use core.ReportOwned so the "+
						"Result survives the arena's next Reset")
			} else {
				pass.Reportf(call.Pos(),
					"(*hv.System).Log returns arena-owned records that are recycled on Reinit; "+
						"copy what you need (or use core.ReportOwned) before the arena is reused")
			}
			return true
		})
	}
	for _, fi := range mod.Funcs(path) {
		for _, e := range fi.Escapes {
			pass.Reportf(e.Pos,
				"arena-aliased value stored into %s outlives the simulation arena's next Reset; "+
					"deep-copy first (core.ReportOwned) or keep the alias local",
				e.What)
		}
	}
	return nil, nil
}
