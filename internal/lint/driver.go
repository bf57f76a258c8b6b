package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/lint/analysis"
	"repro/internal/lint/interproc"
	"repro/internal/lint/load"
)

// Finding is one diagnostic attributed to the analyzer that produced
// it. Check leaves File absolute; RunFindings makes it relative to the
// working directory when that is shorter, mirroring go vet.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Analyzer string `json:"analyzer"`
}

// RunFindings loads the packages matched by patterns and Checks them.
// File names are made relative to the working directory when that is
// shorter, and the findings are in deterministic order (file, line,
// column, analyzer, message). A non-nil error means the load or an
// analyzer itself failed, not that findings exist.
func RunFindings(analyzers []*analysis.Analyzer, patterns []string) ([]Finding, error) {
	pkgs, err := load.Load(patterns...)
	if err != nil {
		return nil, err
	}
	findings, err := Check(pkgs, analyzers)
	if err != nil {
		return nil, err
	}

	cwd, _ := os.Getwd()
	for i := range findings {
		name := findings[i].File
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, name); err == nil && len(rel) < len(name) {
				findings[i].File = rel
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings, nil
}

// Check is the per-package pass loop shared by the driver and
// analysistest: it builds the module-wide interprocedural summaries
// once over pkgs, applies every analyzer to every package, and honors
// //reprolint:allow directives. Malformed, unknown-analyzer and unused
// directives come back as findings of the pseudo-analyzer "reprolint".
// Findings keep the file set's (absolute) file names, in package then
// analyzer order.
func Check(pkgs []*load.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	// One call graph for the whole run: per-function summaries are
	// module-global facts, so building them per package would both
	// waste work and lose cross-package edges.
	mod := interproc.Build(pkgs)

	var findings []Finding
	for _, pkg := range pkgs {
		allows, invalid := analysis.ParseAllows(pkg.Fset, pkg.Syntax, known)
		for _, d := range invalid {
			p := pkg.Fset.Position(d.Pos)
			findings = append(findings, Finding{p.Filename, p.Line, p.Column, d.Message, "reprolint"})
		}
		for _, a := range analyzers {
			var diags []analysis.Diagnostic
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Module:    mod,
				Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
			for _, d := range analysis.Suppress(pkg.Fset, diags, a.Name, allows) {
				p := pkg.Fset.Position(d.Pos)
				findings = append(findings, Finding{p.Filename, p.Line, p.Column, d.Message, a.Name})
			}
		}
		// Every directive must earn its keep: every analyzer just ran,
		// so an unused allow is stale and must go.
		for _, al := range allows {
			if !al.Used {
				p := pkg.Fset.Position(al.Pos)
				findings = append(findings, Finding{
					p.Filename, p.Line, p.Column,
					fmt.Sprintf("reprolint:allow %s suppresses nothing; delete it", al.Analyzer),
					"reprolint",
				})
			}
		}
	}
	return findings, nil
}

// Run applies analyzers to patterns and writes `go vet`-style
// file:line:col diagnostics to w. It returns the number of diagnostics
// printed; a non-nil error means the run itself failed (driver exit 2).
func Run(w io.Writer, analyzers []*analysis.Analyzer, patterns []string) (int, error) {
	findings, err := RunFindings(analyzers, patterns)
	if err != nil {
		return 0, err
	}
	for _, f := range findings {
		fmt.Fprintf(w, "%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
	}
	return len(findings), nil
}

// RunJSON applies analyzers to patterns and writes the findings to w as
// one JSON array (machine-readable CI mode: each element carries file,
// line, col, message, analyzer). The count return mirrors Run.
func RunJSON(w io.Writer, analyzers []*analysis.Analyzer, patterns []string) (int, error) {
	findings, err := RunFindings(analyzers, patterns)
	if err != nil {
		return 0, err
	}
	if findings == nil {
		findings = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(findings); err != nil {
		return 0, err
	}
	return len(findings), nil
}
