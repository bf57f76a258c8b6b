// Package analysistest runs one reprolint analyzer over a fixture
// package and checks its diagnostics against `// want` expectations,
// mirroring golang.org/x/tools/go/analysis/analysistest (unavailable
// in this proxy-less build container, see DESIGN.md §10).
//
// A fixture line that should be diagnosed carries a trailing comment
// with one quoted regexp per expected diagnostic on that line:
//
//	for k := range m { // want `nondeterministic iteration order`
//
// Both backquoted and double-quoted regexps are accepted.
// The analyzer runs through the driver's own pass loop (lint.Check)
// with a suite of one, so //reprolint:allow directives are honored
// exactly as the driver honors them: fixtures assert suppression by
// carrying an allow comment and no want expectation, and a malformed,
// foreign or unused directive surfaces as an unexpected "reprolint"
// diagnostic.
//
// The fixture directory is loaded recursively: a fixture may be a tree
// of packages (the interprocedural analyzers need helper subpackages
// to model cross-package taint), and the module-wide summaries are
// built over the whole tree before any package is analyzed. Want
// expectations are collected and checked across every package of the
// tree.
package analysistest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

var (
	wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)
	tokRe  = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")
)

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// Run loads the fixture tree rooted at dir, applies a to every package
// in it, and reports every mismatch between produced diagnostics and
// // want expectations through t.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	pkgs, err := load.Load(strings.TrimSuffix(dir, "/") + "/...")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s: no packages", dir)
	}

	wants := map[string][]*expectation{} // "file:line" -> expectations
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					for _, tok := range tokRe.FindAllString(m[1], -1) {
						pat, err := strconv.Unquote(tok)
						if err != nil {
							t.Fatalf("%s: cannot unquote want pattern %s: %v", key, tok, err)
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", key, pat, err)
						}
						wants[key] = append(wants[key], &expectation{re: re})
					}
				}
			}
		}
	}

	findings, err := lint.Check(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.File, f.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(f.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s [%s]", key, f.Message, f.Analyzer)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w.re)
			}
		}
	}
}
