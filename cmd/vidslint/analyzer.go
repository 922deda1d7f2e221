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
	"sync"
)

// finding is one diagnostic anchored to a source position. kind
// classifies it for the machine-readable output ("noalloc",
// "nopanic", "directive"); the per-package style rules and the lock
// gate leave it empty and render as "lint".
type finding struct {
	pos  token.Position
	msg  string
	kind string
}

func (f finding) String() string {
	return fmt.Sprintf("%s: %s", f.pos, f.msg)
}

// sortFindings is the one ordering of diagnostics: by file, offset,
// then text.
func sortFindings(out []finding) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos.Filename != out[j].pos.Filename {
			return out[i].pos.Filename < out[j].pos.Filename
		}
		if out[i].pos.Offset != out[j].pos.Offset {
			return out[i].pos.Offset < out[j].pos.Offset
		}
		return out[i].msg < out[j].msg
	})
}

// pkgInfo retains one typechecked module package — syntax, type
// information, the package object and, once indexed, its functions in
// source order.
type pkgInfo struct {
	path  string
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
	funcs []*funcNode
}

// in reports whether the package's import path ends in one of the
// given suffixes ("internal/ids"): how the rule table names packages.
func (pi *pkgInfo) in(suffixes ...string) bool {
	for _, s := range suffixes {
		if strings.HasSuffix(pi.path, s) {
			return true
		}
	}
	return false
}

// stdlib is the source importer for everything outside the module and
// the file set its positions live in. It is shared by every analyzer
// of the process, so the standard library is typechecked once however
// many runs a test makes; nothing in it changes after a package is
// loaded.
var stdlib = sync.OnceValues(func() (*token.FileSet, types.ImporterFrom) {
	fset := token.NewFileSet()
	return fset, importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
})

// analyzer loads and typechecks packages of one module using only the
// standard library: go/parser for syntax, go/types for semantics, and
// a module-aware importer that resolves in-module import paths against
// the repo tree and everything else through the compiler source
// importer. Test files are skipped (they exercise the APIs loosely on
// purpose); `go vet` still covers them in CI.
type analyzer struct {
	fset       *token.FileSet
	moduleRoot string
	modulePath string
	corePath   string // <module>/internal/core
	std        types.ImporterFrom

	// pkgs retains every module package loaded in this run (named on
	// the command line or pulled in as an import), keyed by import
	// path. analyzed marks the subset load was pointed at: roots,
	// per-package rules and directive hygiene apply only there, so
	// linting one fixture directory never blames annotations in
	// packages it merely imports.
	pkgs     map[string]*pkgInfo
	analyzed map[string]bool

	// overlay replaces the content of the named files (absolute paths)
	// before parsing, and in the -S build. Only the mutation self-test
	// sets it.
	overlay map[string][]byte

	ix  *index
	obj *listing // the -S listing both closure gates read
}

func newAnalyzer(moduleRoot, modulePath string) *analyzer {
	fset, std := stdlib()
	return &analyzer{
		fset:       fset,
		moduleRoot: moduleRoot,
		modulePath: modulePath,
		corePath:   modulePath + "/internal/core",
		std:        std,
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
// module root, each typechecked once, and delegates everything else
// (the standard library) to the source importer.
func (a *analyzer) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if !a.inModule(path) {
		return a.std.ImportFrom(path, dir, mode)
	}
	if pi, ok := a.pkgs[path]; ok {
		return pi.pkg, nil
	}
	files, err := a.parseDir(a.dirFor(path), false)
	if err != nil {
		return nil, err
	}
	info := newTypesInfo()
	conf := types.Config{Importer: a}
	pkg, err := conf.Check(path, a.fset, files, info)
	if err != nil {
		return nil, err
	}
	a.pkgs[path] = &pkgInfo{path: path, files: files, info: info, pkg: pkg}
	return pkg, nil
}

func (a *analyzer) inModule(path string) bool {
	return path == a.modulePath || strings.HasPrefix(path, a.modulePath+"/")
}

// sortedPkgs returns the loaded module packages in import-path order.
func (a *analyzer) sortedPkgs() []*pkgInfo {
	paths := make([]string, 0, len(a.pkgs))
	for p := range a.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]*pkgInfo, len(paths))
	for i, p := range paths {
		out[i] = a.pkgs[p]
	}
	return out
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

// parseDir parses the .go files of one directory whose build
// constraints hold: the package's own files, or its _test.go files.
func (a *analyzer) parseDir(dir string, tests bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") != tests {
			continue
		}
		path := filepath.Join(dir, name)
		var src any
		if b, ok := a.overlay[path]; ok {
			src = b
		}
		f, err := parser.ParseFile(a.fset, path, src, parser.ParseComments)
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

// load typechecks one package directory and marks it analyzed. A
// directory with no buildable Go file yields (nil, nil).
func (a *analyzer) load(dir string) (*pkgInfo, error) {
	importPath, err := a.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if _, err := a.ImportFrom(importPath, "", 0); err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", importPath, err)
	}
	pi := a.pkgs[importPath]
	if len(pi.files) == 0 {
		return nil, nil
	}
	a.analyzed[importPath] = true
	return pi, nil
}

// packageRules is the applicability table of the per-package rules:
// each runs over an analyzed package its predicate accepts.
//
// internal/idsgen is specgen's output — tables, typed vectors, machine
// structs, Step and every guard and action body — plus three
// handwritten files that name no state, variable or event. The style
// rules (typed-accessor idiom, dropped-error discipline, guard purity)
// are tuned for specifications a human authors transition by
// transition; those live in internal/ids and are checked there, not in
// the Go a generator rewrites wholesale from them. The program-wide
// noalloc/nopanic closures and the lock gate still apply there: the
// compiled hot path gets the same guarantees as the interpreted one.
var packageRules = []struct {
	applies func(*pkgInfo) bool
	check   func(*index, *pkgInfo) []finding
}{
	{func(pi *pkgInfo) bool { return !pi.in("internal/idsgen") }, checkDroppedErrors},
	// internal/core owns the typed accessors and indexes Args itself.
	{func(pi *pkgInfo) bool { return !pi.in("internal/idsgen", "internal/core") }, checkArgsIndexing},
	// internal/sipmsg is where the parser lives: it alone may
	// materialize payload strings.
	{func(pi *pkgInfo) bool { return !pi.in("internal/idsgen", "internal/sipmsg") }, checkPayloadStringConv},
	{func(pi *pkgInfo) bool { return pi.in("internal/ids") }, checkSpecRegistry},
	{func(pi *pkgInfo) bool { return !pi.in("internal/idsgen") }, checkGuardPurity},
	// The simulation-driven packages: detection time there comes from
	// the virtual clock.
	{func(pi *pkgInfo) bool { return pi.in("internal/ids", "internal/engine", "internal/ingress") }, checkWallClock},
}

// packageFindings runs every per-package rule that applies to pi.
func (a *analyzer) packageFindings(pi *pkgInfo) []finding {
	ix := a.index()
	var out []finding
	for _, r := range packageRules {
		if r.applies(pi) {
			out = append(out, r.check(ix, pi)...)
		}
	}
	sortFindings(out)
	return out
}

// programFindings runs the whole-program rule sets over everything
// loaded so far: the noalloc and nopanic gates over their root
// closures, the lock gate, directive freshness, and — when the real
// internal/ids package was among the analyzed directories (a
// module-wide lint, not a fixture run) — the alloc-ceiling drift gate
// against alloc_test.go. It comes after packageFindings: the wall-clock
// rule there is what marks a //vidslint:allow used.
func (a *analyzer) programFindings() ([]finding, error) {
	ix := a.index()
	hot := ix.walk(ix.roots(dirNoalloc), staysHot, nil)
	raw := ix.walk(ix.roots(dirNopanic), everyEdge, nil)
	obj, err := a.objectCode(hot, raw)
	if err != nil {
		return nil, err
	}
	noalloc, err := checkNoalloc(ix, hot, obj)
	if err != nil {
		return nil, err
	}
	nopanic, err := checkNopanic(ix, raw, obj)
	if err != nil {
		return nil, err
	}
	locks := checkLocks(ix)
	out := append(append(noalloc.findings, nopanic.findings...), locks.findings...)
	if a.analyzed[a.modulePath+"/internal/ids"] {
		fs, err := checkAllocDrift(ix, noalloc.cl)
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	out = append(out, ix.sweep(map[string]*closure{dirNoalloc: noalloc.cl, dirNopanic: nopanic.cl}, locks)...)
	sortFindings(out)
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
