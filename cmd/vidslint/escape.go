package main

import (
	"fmt"
	"go/ast"
	"go/types"
)

// The noalloc gate asks the compiler whether the per-packet path
// allocates. Every CALL to a runtime allocator (allocators below) that
// the shared -S listing (object.go) places on a line inside a reached
// function's declaration is a site. Inlined code keeps the line it was
// written on, so a site is charged to the function whose source it is,
// wherever the compiler placed its code.
//
// Beside the object code the gate keeps the rules it cannot read
// there:
//
//   - a growslice on a line whose every append is the self-append form
//     `x = append(x, ...)` / `x = append(x[:0], ...)` is accepted when
//     x has capacity to reuse — it is not a local of the function
//     declared without one: growth is amortized against reused
//     capacity, which the AllocsPerRun ceilings in alloc_test.go bound
//     at runtime;
//   - calls the analysis cannot resolve statically — function values,
//     interface methods — are findings: an unprovable callee is an
//     unproven hot path;
//   - a module callee with no body in the index is a finding;
//   - calls out of the module are findings unless the package or
//     function is on the allocation-free allowlist below: the standard
//     library's own code is not listed.

// allocators are the runtime functions the compiler calls to allocate,
// by name; a trailing * names a family (makemap_small, convT64, …).
// They are the allocating entries of the compiler's runtime interface
// (cmd/compile/internal/typecheck/_builtin/runtime.go) and of the
// runtime symbols its SSA backend calls directly (ssagen.InitConfig).
var allocators = []runtimeFn{
	{"newobject", "a value escapes to the heap"},
	{"makeslice*", "make allocates a slice"},
	{"makemap*", "make allocates a map"},
	{"mapassign*", "map assignment may grow the map"},
	{"growslice", "append grows a slice whose capacity is not reused"},
	{"makechan*", "make allocates a channel"},
	{"slicebytetostring", "conversion string([]byte) copies"},
	{"slicerunetostring", "conversion string([]rune) copies"},
	{"stringtoslicebyte", "conversion []byte(string) copies"},
	{"stringtoslicerune", "conversion []rune(string) copies"},
	{"intstring", "conversion string(rune) allocates"},
	{"concatstring*", "string concatenation allocates"},
	{"concatbyte*", "conversion []byte(string concatenation) allocates"},
	{"convT*", "interface conversion boxes a value"},
	{"newproc", "go statement allocates a goroutine"},
	{"deferproc", "defer allocates its record"},
	{"deferprocat", "defer in a range-over-func body allocates its record"},
	{"deferrangefunc", "defer in a range-over-func body allocates its record"},
	{"mallocgc", "heap allocation"},
}

// allocation returns the finding text of a call to runtime.fn, or ""
// when fn does not allocate.
func allocation(fn string) string { return lookup(allocators, fn) }

// noallocPackages are non-module packages whose exported API is
// allocation-free for the operations the hot path uses (atomics,
// arithmetic, fixed-width codecs, intrusive-heap maintenance).
var noallocPackages = map[string]bool{
	"sync":            true,
	"sync/atomic":     true,
	"math":            true,
	"math/bits":       true,
	"time":            true, // Duration arithmetic; wall-clock reads are checkWallClock's concern
	"encoding/binary": true,
	"container/heap":  true, // pointer-shaped elements only; sim's event heap qualifies
	"unicode/utf8":    true,
}

// noallocFuncs allowlists individual non-module functions from
// packages that also export allocating APIs.
var noallocFuncs = map[string]bool{
	"strconv.AppendInt":   true,
	"strconv.AppendUint":  true,
	"bytes.Index":         true,
	"bytes.IndexByte":     true,
	"bytes.LastIndexByte": true,
	"bytes.Equal":         true,
	"bytes.Compare":       true,
	"bytes.Cut":           true, // returns subslices
	"bytes.HasPrefix":     true,
	"bytes.HasSuffix":     true,
	"bytes.Contains":      true,
	"bytes.TrimSpace":     true, // returns a subslice
	"strings.Index":       true,
	"strings.IndexByte":   true,
	"strings.LastIndex":   true,
	"strings.EqualFold":   true,
	"strings.Compare":     true,
	"strings.HasPrefix":   true,
	"strings.HasSuffix":   true,
	"strings.Contains":    true,
	"strings.Count":       true,
	"strings.TrimSpace":   true, // returns a substring
	"strings.TrimPrefix":  true,
	"strings.TrimSuffix":  true,
	"strings.CutPrefix":   true,
	"strings.CutSuffix":   true,
	"strings.Cut":         true,
	"strings.IndexAny":    true,
	"strings.Trim":        true, // returns a substring
	"strconv.Atoi":        true, // allocates only in its *NumError return
	"errors.Is":           true,
	"sort.Search":         true,
}

// checkNoalloc runs the allocation gate over cl, the walk from the
// //vids:noalloc roots that stops at //vids:coldpath callees: each
// reached function's calls and allocator lines. Each finding carries
// the call path from the root, so its reader sees *why* a function is
// hot before judging the justification.
func checkNoalloc(ix *index, cl *closure, obj *listing) (*gate, error) {
	g := &gate{
		ix: ix, cl: cl, kind: "noalloc", waiver: dirAllocOK,
		format: "noalloc: %s [hot path: %s]; justify with //vids:alloc-ok <reason> or restructure",
	}
	for node := range cl.reached {
		scanCalls(g, node)
		if err := scanObject(g, node, obj); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// staysHot is the noalloc walk's edge rule: a //vids:coldpath callee
// is off the per-packet path, so the walk stops there (and the
// directive has earned its keep).
func staysHot(site *callSite) bool {
	if cold := site.callee.dirs[dirColdpath]; cold != nil {
		cold.used = true
		return false
	}
	return true
}

// scanCalls applies the call rules: dynamic calls the analysis cannot
// follow, module callees without a body, and non-module callees off
// the allowlist.
func scanCalls(g *gate, node *funcNode) {
	for _, site := range node.sites {
		pos := site.call.Pos()
		switch site.kind {
		case callInterface:
			g.site(node, pos, fmt.Sprintf("interface method call %s cannot be statically resolved", site.name))
		case callValue:
			g.site(node, pos, fmt.Sprintf("dynamic call through %s cannot be proven allocation-free", site.name))
		case callComputed:
			g.site(node, pos, "dynamic call through a computed function value cannot be proven allocation-free")
		case callStatic:
			fn := site.fn
			if fn.Pkg() == nil {
				continue // error.Error and friends from the universe scope
			}
			path := fn.Pkg().Path()
			switch {
			case site.module && site.callee == nil:
				g.site(node, pos, fmt.Sprintf("call to %s has no body in the module index (generated or assembly?)", fn.FullName()))
			case !site.module && !noallocPackages[path] && !noallocFuncs[path+"."+fn.Name()]:
				g.site(node, pos, fmt.Sprintf("call into %s.%s is not on the allocation-free allowlist", path, fn.Name()))
			}
		}
	}
}

// scanObject reports every allocator call the listing places on a line
// of node's declaration, once per line and allocator, except a
// growslice on a line of self-appends.
func scanObject(g *gate, node *funcNode, obj *listing) error {
	lines, err := obj.code(g.ix, node)
	if err != nil {
		return err
	}
	tf, selfAppend := g.ix.a.fset.File(node.decl.Pos()), selfAppendLines(g.ix, node)
	for line := tf.Line(node.decl.Pos()); line <= tf.Line(node.decl.End()); line++ {
		for _, fn := range lines[line] {
			if what := allocation(fn); what != "" && (fn != "growslice" || !selfAppend[line]) {
				g.site(node, tf.LineStart(line), what)
			}
		}
	}
	return nil
}

// selfAppendLines returns, for each line of node's body with an
// append, whether every append there is reassigned to its own operand
// and that operand has capacity to reuse: it is not a local declared
// without one.
func selfAppendLines(ix *index, node *funcNode) map[int]bool {
	self := make(map[*ast.CallExpr]bool)
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) == 0 || types.ExprString(as.Lhs[i]) != types.ExprString(appendBase(call.Args[0])) {
				continue
			}
			lv := localOf(node, as.Lhs[i])
			self[call] = lv == nil || !lv.noCap
		}
		return true
	})
	lines := make(map[int]bool)
	for _, site := range node.sites {
		if site.kind == callBuiltin && site.name == "append" {
			line := ix.a.fset.Position(site.call.Pos()).Line
			all, seen := lines[line]
			lines[line] = self[site.call] && (all || !seen)
		}
	}
	return lines
}

// appendBase strips slicing from an append destination so
// `x = append(x[:0], ...)` is recognized as self-append.
func appendBase(expr ast.Expr) ast.Expr {
	e := ast.Unparen(expr)
	for {
		sl, ok := e.(*ast.SliceExpr)
		if !ok {
			return e
		}
		e = ast.Unparen(sl.X)
	}
}
