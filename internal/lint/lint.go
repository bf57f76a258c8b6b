// Package lint is reprolint: the static enforcement of this
// repository's determinism contract (DESIGN.md §10). Every analyzer
// here guards an invariant that the content-addressed result cache,
// the crash-recovery byte-identity checks and the eq. (14) oracle all
// assume — a (scenario, seed, code revision) triple must always
// produce the same bytes.
//
// Analyzers report through `go vet`-style file:line:col diagnostics.
// A finding that is a genuine false positive is suppressed with a
// comment on the offending line or the line above:
//
//	//reprolint:allow <analyzer> <reason>
//
// The reason is mandatory, unknown analyzer names are themselves
// diagnostics, and an allow comment that suppresses nothing is
// reported as unused, so stale suppressions cannot accumulate.
package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// modulePath is this repository's module path; the analyzer scope
// lists below are rooted at it.
const modulePath = "repro"

// All returns the reprolint analyzer suite in its fixed run order, one
// analyzer per contract. wallclock, arenaretain, lockheld and
// durableerr read the module call graph's summaries (DESIGN.md §15);
// the rest are single-package statement checks.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Detmap, Wallclock, CtxErrOrder, MetricName, Arenaretain, Cellmap,
		Lockheld, Durableerr,
	}
}

// pkgMatches reports whether path is one of the listed packages or a
// child of one (prefix match on path segments).
func pkgMatches(path string, pkgs []string) bool {
	for _, p := range pkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// isFixtureFor reports whether path is the analysistest fixture package
// for the named analyzer, so the fixtures under
// internal/lint/testdata/src/<name> are always in that analyzer's
// scope regardless of the production scope lists.
func isFixtureFor(path, name string) bool {
	return strings.HasSuffix(path, "testdata/src/"+name)
}

// isAnyFixture reports whether path is any analysistest fixture package
// (or a helper subpackage of one). Analyzers with catch-all scopes
// exclude these: a fixture belongs only to the analyzers that opt into
// it via isFixtureFor, otherwise every fixture would have to stay clean
// under every catch-all analyzer simultaneously.
func isAnyFixture(path string) bool {
	return strings.Contains(path, "/testdata/src/")
}

// pkgNameOf resolves expr to the imported package it names, if it is a
// bare package identifier (e.g. the `time` in `time.Now`), and returns
// that package's import path.
func pkgNameOf(pass *analysis.Pass, expr ast.Expr) (string, bool) {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return "", false
	}
	if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path(), true
	}
	return "", false
}
