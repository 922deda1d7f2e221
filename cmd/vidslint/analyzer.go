package main

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// finding is one diagnostic anchored to a source position. kind
// classifies it for the machine-readable output ("noalloc",
// "nopanic", "directive"); the per-package style and concurrency
// rules leave it empty and render as "lint".
type finding struct {
	pos  token.Position
	msg  string
	kind string
}

func (f finding) String() string {
	return fmt.Sprintf("%s: %s", f.pos, f.msg)
}

// pkgInfo retains one typechecked module package — syntax, type
// information and the package object — so the whole-program passes
// (the escape gate and the alloc-ceiling drift check) can traverse
// call graphs across package boundaries after the per-package rules
// ran.
type pkgInfo struct {
	path  string
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// analyzer loads, typechecks and lints packages of one module using
// only the standard library: go/parser for syntax, go/types for
// semantics, and a module-aware importer that resolves in-module
// import paths against the repo tree and everything else through the
// compiler source importer. Test files are skipped (they exercise the
// APIs loosely on purpose); `go vet` still covers them in CI.
type analyzer struct {
	fset       *token.FileSet
	moduleRoot string
	modulePath string
	corePath   string // <module>/internal/core
	std        types.ImporterFrom
	cache      map[string]*types.Package

	// pkgs retains every module package loaded in this run (explicitly
	// analyzed or pulled in as an import), keyed by import path.
	// analyzed marks the subset that analyzeDir was pointed at: the
	// whole-program passes report directive staleness only there, so
	// linting one fixture directory never blames annotations in
	// packages it merely imports.
	pkgs     map[string]*pkgInfo
	analyzed map[string]bool

	// prog is the whole-program index of the latest programFindings
	// run, kept for the -json waiver inventory.
	prog *program
}

func newAnalyzer(moduleRoot, modulePath string) *analyzer {
	fset := token.NewFileSet()
	return &analyzer{
		fset:       fset,
		moduleRoot: moduleRoot,
		modulePath: modulePath,
		corePath:   modulePath + "/internal/core",
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache:      make(map[string]*types.Package),
		pkgs:       make(map[string]*pkgInfo),
		analyzed:   make(map[string]bool),
	}
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// Import implements types.Importer for the typechecker's benefit.
func (a *analyzer) Import(path string) (*types.Package, error) {
	return a.ImportFrom(path, "", 0)
}

// ImportFrom resolves module-internal packages from source under the
// module root and delegates everything else (the standard library) to
// the source importer.
func (a *analyzer) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := a.cache[path]; ok {
		return pkg, nil
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == a.modulePath || strings.HasPrefix(path, a.modulePath+"/") {
		files, err := a.parseDir(a.dirFor(path))
		if err != nil {
			return nil, err
		}
		info := newTypesInfo()
		conf := types.Config{Importer: a}
		pkg, err := conf.Check(path, a.fset, files, info)
		if err != nil {
			return nil, err
		}
		a.cache[path] = pkg
		if _, ok := a.pkgs[path]; !ok {
			a.pkgs[path] = &pkgInfo{path: path, files: files, info: info, pkg: pkg}
		}
		return pkg, nil
	}
	pkg, err := a.std.ImportFrom(path, dir, mode)
	if err == nil {
		a.cache[path] = pkg
	}
	return pkg, err
}

func (a *analyzer) dirFor(importPath string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, a.modulePath), "/")
	return filepath.Join(a.moduleRoot, filepath.FromSlash(rel))
}

func (a *analyzer) importPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(a.moduleRoot, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return a.modulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module %s", dir, a.moduleRoot)
	}
	return a.modulePath + "/" + filepath.ToSlash(rel), nil
}

// parseDir parses every non-test .go file of one directory.
func (a *analyzer) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(a.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if !buildConstraintSatisfied(f) {
			continue
		}
		files = append(files, f)
	}
	return files, nil
}

// buildConstraintSatisfied mirrors the go tool's //go:build file
// selection for the analyzer's own GOOS/GOARCH, so platform variants
// of one symbol (e.g. the SO_REUSEPORT pair in internal/ingress)
// don't collide in the typechecker.
func buildConstraintSatisfied(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true // malformed constraints are the compiler's problem
			}
			return expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH
			})
		}
	}
	return true
}

// analyzeDir typechecks one package directory and runs every rule.
func (a *analyzer) analyzeDir(dir string) ([]finding, error) {
	importPath, err := a.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	files, err := a.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, nil
	}
	info := newTypesInfo()
	conf := types.Config{Importer: a}
	pkg, err := conf.Check(importPath, a.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", importPath, err)
	}
	a.pkgs[importPath] = &pkgInfo{path: importPath, files: files, info: info, pkg: pkg}
	a.analyzed[importPath] = true

	// internal/idsgen is specgen's output — tables, typed vectors,
	// machine structs, Step and every guard and action body — plus three
	// handwritten files that name no state, variable or event. The style
	// rules (typed-accessor idiom, dropped-error discipline, guard
	// purity) are tuned for specifications a human authors transition by
	// transition; those live in internal/ids and are checked there, not
	// in the Go a generator rewrites wholesale from them. The
	// program-wide noalloc/nopanic closures and the lock gate still
	// apply: the compiled hot path gets the same guarantees as the
	// interpreted one.
	style := !strings.HasSuffix(importPath, "internal/idsgen")

	var out []finding
	if style {
		out = append(out, a.checkDroppedErrors(files, info)...)
		out = append(out, a.checkArgsIndexing(importPath, files, info)...)
		if !strings.HasSuffix(importPath, "internal/sipmsg") {
			out = append(out, a.checkPayloadStringConv(files, info)...)
		}
		if strings.HasSuffix(importPath, "internal/ids") {
			out = append(out, a.checkSpecRegistry(importPath, files, info)...)
		}
		out = append(out, a.checkGuardPurity(files, info)...)
		if strings.HasSuffix(importPath, "internal/ids") || strings.HasSuffix(importPath, "internal/engine") ||
			strings.HasSuffix(importPath, "internal/ingress") {
			out = append(out, a.checkWallClock(files, info)...)
		}
	}
	if strings.HasSuffix(importPath, "internal/engine") || strings.HasSuffix(importPath, "internal/timerwheel") ||
		strings.HasSuffix(importPath, "internal/ingress") || strings.HasSuffix(importPath, "internal/idsgen") {
		out = append(out, a.checkLockDiscipline(files, info)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos.Filename != out[j].pos.Filename {
			return out[i].pos.Filename < out[j].pos.Filename
		}
		return out[i].pos.Offset < out[j].pos.Offset
	})
	return out, nil
}

// expandPatterns turns go-style package patterns ("./...", "./cmd/x")
// into package directories. testdata, hidden and underscore-prefixed
// directories are skipped, mirroring the go tool.
func (a *analyzer) expandPatterns(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return
		}
		if !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Clean(strings.TrimSuffix(rest, "/"))
			if root == "" {
				root = "."
			}
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		add(pat)
	}
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}
