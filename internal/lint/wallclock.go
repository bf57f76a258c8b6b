package lint

import (
	"fmt"
	"go/ast"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/interproc"
)

// Wallclock forbids host-clock reads (time.Now, time.Since, ...) and
// global math/rand calls in simulation packages. Simulated time comes
// from internal/simtime (cycle-accurate, part of the result bytes) and
// randomness from internal/rng (seeded PCG streams, part of the cache
// key); a wall-clock read in a sim path makes the same (scenario,
// seed, revision) triple produce different bytes on different hosts.
//
// It has two rules over one table of base facts (interproc.BaseClock).
// The direct rule flags a call to a base fact itself. The transitive
// rule flags a call whose callee's propagated Clock summary is set —
// a time.Now two helpers deep in another package taints every caller
// but appears in no caller's own statements — and names the witness
// chain. Everything under internal/ is in scope except the operational
// packages (interproc.OperationalClockPkgs), which are also a
// propagation boundary: calls into them never taint a caller.
var Wallclock = &analysis.Analyzer{
	Name: "wallclock",
	Doc: "forbids calls in simulation packages that read time.Now/time.Since/global " +
		"math/rand directly or reach them through any helper chain; use internal/simtime " +
		"and internal/rng (operational packages internal/serve, internal/store, " +
		"internal/runner, internal/metrics, internal/cluster are allowlisted)",
	Run: runWallclock,
}

func runWallclock(pass *analysis.Pass) (interface{}, error) {
	mod, ok := pass.Module.(*interproc.Module)
	if !ok {
		return nil, fmt.Errorf("wallclock needs the interprocedural module summaries (driver did not set Pass.Module)")
	}
	path := pass.Pkg.Path()
	inScope := pkgMatches(path, []string{modulePath + "/internal"}) &&
		!pkgMatches(path, interproc.OperationalClockPkgs) && !isAnyFixture(path)
	// Beyond its own fixture, this analyzer opts into the helper-chain
	// fixture's entry package (its clockutil subpackage stands in for an
	// out-of-scope helper package, the shape of the real-world miss) and
	// the allow-directive fixtures, whose suppressed findings are
	// wallclock findings.
	if !inScope && !isFixtureFor(path, "wallclock") && !isFixtureFor(path, "wallclock2") &&
		!isFixtureFor(path, "allowlint") && !isFixtureFor(path, "allowmulti") {
		return nil, nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			key := interproc.CalleeOf(pass.TypesInfo, call)
			switch {
			case interproc.BaseClock(key) && strings.HasPrefix(key, "time."):
				pass.Reportf(call.Pos(),
					"wall-clock %s in simulation package %s; use internal/simtime (simulated cycles) — real time must not reach deterministic results",
					key, path)
			case interproc.BaseClock(key):
				pass.Reportf(call.Pos(),
					"global %s in simulation package %s; use internal/rng seeded streams — implicit global seeding breaks run identity",
					key, path)
			case mod.ClockTainted(key):
				pass.Reportf(call.Pos(),
					"call to %s transitively reads the wall clock (%s) in simulation package %s; "+
						"real time must not reach deterministic results",
					interproc.Short(key), mod.ClockChain(key), path)
			}
			return true
		})
	}
	return nil, nil
}
