// Package load turns `go vet`-style package patterns into parsed,
// type-checked packages for the reprolint analyzers.
//
// It is built entirely from the standard library: go/build selects the
// files that belong to the package on this platform (honoring build
// constraints), go/parser produces the syntax trees, and go/types
// checks them. Module-local imports resolve to the packages the same
// Load call has already checked (loading them on first use); only
// non-module paths go to the stdlib source importer. This keeps
// reprolint working in the proxy-less build container where
// golang.org/x/tools/go/packages is unavailable (DESIGN.md §10).
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	// PkgPath is the import path (module path + directory), e.g.
	// "repro/internal/hv".
	PkgPath string
	// Dir is the absolute directory holding the package sources.
	Dir string
	// Fset is the file set shared by every package of one Load call.
	Fset *token.FileSet
	// Syntax holds the parsed files, with comments.
	Syntax []*ast.File
	// Types and TypesInfo carry the go/types results.
	Types     *types.Package
	TypesInfo *types.Info
}

// Load expands the given patterns relative to the current working
// directory (which must be inside a Go module) and returns one Package
// per matched directory that contains non-test Go files.
//
// Supported pattern forms, mirroring the go tool: a directory path
// ("./internal/hv", "internal/lint/testdata/src/detmap", absolute
// paths), and recursive patterns ending in "/..." ("./...",
// "internal/..."). Recursive walks skip testdata, vendor, hidden and
// underscore-prefixed directories, exactly like the go tool; explicit
// directory arguments are loaded even under testdata, which is how the
// analyzer fixtures are checked.
func Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("load: no packages to check")
	}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	modRoot, modPath, err := findModule(cwd)
	if err != nil {
		return nil, err
	}

	dirs, err := expand(cwd, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	l := &loader{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		modRoot: modRoot,
		modPath: modPath,
		memo:    map[string]*Package{},
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// loader type-checks every package at most once per Load call: a
// module package is checked the first time it is needed, as a pattern
// root or as another package's import, and memoized by directory;
// every other import goes to the shared stdlib source importer, which
// keeps its own cache.
type loader struct {
	fset             *token.FileSet
	std              types.Importer
	modRoot, modPath string
	memo             map[string]*Package // dir → package; nil while being checked
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, l.modPath)
	if !ok || (rel != "" && rel[0] != '/') {
		return l.std.Import(path)
	}
	dir := filepath.Join(l.modRoot, filepath.FromSlash(rel))
	if pkg, seen := l.memo[dir]; seen && pkg == nil {
		return nil, fmt.Errorf("load: import cycle through %s", path)
	}
	pkg, err := l.loadDir(dir)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("load: no Go files for %s in %s", path, dir)
	}
	return pkg.Types, nil
}

// findModule walks upward from dir to the enclosing go.mod and returns
// the module root directory and module path.
func findModule(dir string) (root, path string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("load: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("load: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// expand resolves patterns to a sorted, de-duplicated list of absolute
// candidate directories.
func expand(cwd string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." {
			pat, recursive = ".", true
		} else if strings.HasSuffix(pat, "/...") {
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		if !filepath.IsAbs(pat) {
			pat = filepath.Join(cwd, pat)
		}
		fi, err := os.Stat(pat)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		if !fi.IsDir() {
			return nil, fmt.Errorf("load: %s is not a directory", pat)
		}
		if !recursive {
			add(pat)
			continue
		}
		err = filepath.WalkDir(pat, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != pat && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(p)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// loadDir parses and type-checks the package in dir, or returns
// (nil, nil) when the directory holds no non-test Go files.
func (l *loader) loadDir(dir string) (*Package, error) {
	if pkg, ok := l.memo[dir]; ok && pkg != nil {
		return pkg, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil
		}
		return nil, fmt.Errorf("load: %s: %w", dir, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	pkgPath := l.modPath
	if rel, err := filepath.Rel(l.modRoot, dir); err == nil && rel != "." {
		pkgPath = l.modPath + "/" + filepath.ToSlash(rel)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	l.memo[dir] = nil
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(pkgPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %w", pkgPath, err)
	}
	pkg := &Package{
		PkgPath:   pkgPath,
		Dir:       dir,
		Fset:      l.fset,
		Syntax:    files,
		Types:     tpkg,
		TypesInfo: info,
	}
	l.memo[dir] = pkg
	return pkg, nil
}
