package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// The alloc-ceiling drift gate ties the two halves of the hot-path
// contract together: every module function measured by a
// testing.AllocsPerRun ceiling in the root alloc tests must be inside
// (or itself be) a //vids:noalloc closure, so the static allocation gate
// and the runtime budget always police the same code. When someone
// adds a new ceiling without annotating the code path — or removes an
// annotation the ceilings still depend on — `make lint` fails.

// checkAllocDrift typechecks the module root's *_test.go files into
// the index, finds every testing.AllocsPerRun call, resolves the module
// functions its closure invokes (following test-local helpers and
// closures bound to locals), and reports any that the noalloc walk
// never reached.
func checkAllocDrift(ix *index, noalloc *closure) ([]finding, error) {
	a := ix.a
	// The root test files, grouped by package clause. The build
	// constraints drop the `race` variant of the one file pair that
	// exists to toggle a boolean.
	files, err := a.parseDir(a.moduleRoot, true)
	if err != nil {
		return nil, err
	}
	groups := make(map[string][]*ast.File)
	for _, f := range files {
		groups[f.Name.Name] = append(groups[f.Name.Name], f)
	}
	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)
	d := &driftScan{ix: ix, noalloc: noalloc, reported: make(map[*funcNode]bool), visited: make(map[*ast.BlockStmt]bool)}
	for _, name := range names {
		info := newTypesInfo()
		conf := types.Config{Importer: a}
		pkg, err := conf.Check(name, a.fset, groups[name], info)
		if err != nil {
			return nil, fmt.Errorf("typecheck root test package %s: %w", name, err)
		}
		d.tests = &pkgInfo{path: name, files: groups[name], info: info, pkg: pkg}
		ix.add(d.tests)
		for _, f := range d.tests.files {
			ix.eachCall(f, func(site *callSite) {
				if site.kind == callStatic && site.fn.FullName() == "testing.AllocsPerRun" && len(site.call.Args) == 2 {
					d.scan(ix.bodyOf(info, site.call.Args[1]))
				}
			})
		}
	}
	return d.findings, nil
}

// driftScan resolves the functions a measured closure calls.
type driftScan struct {
	ix       *index
	noalloc  *closure
	tests    *pkgInfo // the root test package being scanned
	reported map[*funcNode]bool
	visited  map[*ast.BlockStmt]bool
	findings []finding
}

// scan collects the module functions a measured body calls, recursing
// through the test package's own helpers and closures, and reports any
// that are outside every //vids:noalloc closure.
func (d *driftScan) scan(body *ast.BlockStmt) {
	if body == nil || d.visited[body] {
		return
	}
	d.visited[body] = true
	d.ix.eachCall(body, func(site *callSite) {
		switch {
		case site.kind == callValue:
			if lit := d.ix.litVars[site.obj]; lit != nil {
				d.scan(lit.Body)
			}
		case site.callee == nil:
			// not a module function with a body in the index
		case site.callee.pkg == d.tests:
			d.scan(site.callee.decl.Body)
		case site.callee.dirs[dirNoalloc] == nil && !d.noalloc.reached[site.callee] && !d.reported[site.callee]:
			d.reported[site.callee] = true
			d.findings = append(d.findings, finding{
				pos: d.ix.a.fset.Position(site.call.Pos()),
				msg: fmt.Sprintf("alloc-ceiling drift: %s is measured by testing.AllocsPerRun here but is not covered by any //vids:noalloc root — annotate it (or a caller) so the allocation gate polices what the budget measures", site.callee.name()),
			})
		}
	})
}
