package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// The noalloc gate asks the compiler whether the per-packet path
// allocates. One `go build` over the module packages the walk reaches,
// with -S for exactly those packages, lists every instruction with the
// source line it was compiled from. Every CALL to a runtime allocator
// (allocators below) on a line inside a reached function's declaration
// is a site. Inlined code keeps the line it was written on, so a site
// is charged to the function whose source it is, wherever the compiler
// placed its code. The build runs the toolchain that runs vidslint,
// offline, through the build cache, and discards what it links.
//
// Beside the object code the gate keeps the rules it cannot read
// there:
//
//   - a growslice on a line whose every append is the self-append form
//     `x = append(x, ...)` / `x = append(x[:0], ...)` is accepted:
//     growth is amortized against reused capacity, which the
//     AllocsPerRun ceilings in alloc_test.go bound at runtime;
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
var allocators = []struct{ name, what string }{
	{"newobject", "a value escapes to the heap"},
	{"makeslice*", "make allocates a slice"},
	{"makemap*", "make allocates a map"},
	{"mapassign*", "map assignment may grow the map"},
	{"growslice", "append whose result is not reassigned to its own operand grows a slice"},
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
func allocation(fn string) string {
	for _, a := range allocators {
		if family, ok := strings.CutSuffix(a.name, "*"); fn == a.name || ok && strings.HasPrefix(fn, family) {
			return fmt.Sprintf("%s (runtime.%s)", a.what, fn)
		}
	}
	return ""
}

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

// checkNoalloc runs the allocation gate: one walk from the annotated
// roots that stops at //vids:coldpath callees, one build that lists
// the reached packages' object code, then each reached function's
// calls and allocator lines. Each finding carries the call path from
// the root, so its reader sees *why* a function is hot before judging
// the justification.
func checkNoalloc(ix *index) (*gate, error) {
	g := &gate{
		ix: ix, kind: "noalloc", root: dirNoalloc, waiver: dirAllocOK,
		format: "noalloc: %s [hot path: %s]; justify with //vids:alloc-ok <reason> or restructure",
	}
	g.cl = ix.walk(ix.roots(dirNoalloc), staysHot, nil)
	pkgs := make(map[string]bool)
	for node := range g.cl.reached {
		pkgs[node.pkg.path] = true
	}
	allocs, err := ix.a.compiledAllocs(pkgs)
	if err != nil {
		return nil, err
	}
	for node := range g.cl.reached {
		scanCalls(g, node)
		if err := scanObject(g, node, allocs); err != nil {
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
// growslice on a line of self-appends. A listing with no code from
// node's file is an error, not a clean verdict: the gate fails closed
// when the listing's file names or format stop matching the index.
func scanObject(g *gate, node *funcNode, allocs map[string]map[int][]string) error {
	tf := g.ix.a.fset.File(node.decl.Pos())
	lines, selfAppend := allocs[tf.Name()], selfAppendLines(g.ix, node)
	if lines == nil {
		return fmt.Errorf("go build -S of the hot-path packages listed no code from %s (reached through %s)", tf.Name(), node.name())
	}
	for line := tf.Line(node.decl.Pos()); line <= tf.Line(node.decl.End()); line++ {
		for _, fn := range lines[line] {
			if fn != "growslice" || !selfAppend[line] {
				g.site(node, tf.LineStart(line), allocation(fn))
			}
		}
	}
	return nil
}

// selfAppendLines returns, for each line of node's body with an
// append, whether every append there is reassigned to its own operand.
func selfAppendLines(ix *index, node *funcNode) map[int]bool {
	self := make(map[*ast.CallExpr]bool)
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if ok && len(call.Args) > 0 && types.ExprString(as.Lhs[i]) == types.ExprString(appendBase(call.Args[0])) {
				self[call] = true
			}
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

// compiledAllocs compiles the given module packages with -S and returns
// their allocator calls: file → line → runtime function names, each
// once. The files of the analyzer's overlay reach the compiler through
// `go build -overlay`, so the listing is of the source the index holds.
func (a *analyzer) compiledAllocs(pkgs map[string]bool) (map[string]map[int][]string, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	targets := make([]string, 0, len(pkgs))
	for p := range pkgs {
		targets = append(targets, p)
	}
	sort.Strings(targets)
	args := []string{"build", "-o", os.DevNull}
	for _, p := range targets {
		args = append(args, "-gcflags="+p+"=-S")
	}
	if len(a.overlay) > 0 {
		dir, err := os.MkdirTemp("", "vidslint-overlay")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		replace := make(map[string]string)
		for file, src := range a.overlay {
			replace[file] = filepath.Join(dir, strconv.Itoa(len(replace))+".go")
			if err := os.WriteFile(replace[file], src, 0o644); err != nil {
				return nil, err
			}
		}
		js, err := json.Marshal(map[string]any{"Replace": replace})
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, "overlay.json"), js, 0o644)
		}
		if err != nil {
			return nil, err
		}
		args = append(args, "-overlay", filepath.Join(dir, "overlay.json"))
	}
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), append(args, targets...)...)
	cmd.Dir = a.moduleRoot
	// The user's GOFLAGS could rename the listing's files (-trimpath)
	// or change what it compiles, so none pass through.
	cmd.Env = append(cmd.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off", "GOFLAGS=")
	// The listing is the compiler's -S output, which the go command
	// prints on stderr beside its own diagnostics.
	out, err := cmd.CombinedOutput()
	listing := strings.Split(string(out), "\n")
	if err != nil {
		var diag []string
		for _, line := range listing {
			if line != "" && !strings.HasPrefix(line, "\t") && !strings.Contains(line, " size=") {
				diag = append(diag, line)
			}
		}
		return nil, fmt.Errorf("go build -S of the hot-path packages: %v\n%s", err, strings.Join(diag, "\n"))
	}
	// Every instruction line carries its source position; an allocator
	// call reads
	//	0x00a0 00160 (/path/file.go:902)	CALL	runtime.newobject(SB)
	// Every file the listing places code in gets an entry, so a file
	// with none is told apart from a file without allocations.
	allocs := make(map[string]map[int][]string)
	for _, line := range listing {
		loc, instr, ok := strings.Cut(line, ")\t")
		open, colon := strings.IndexByte(loc, '('), strings.LastIndexByte(loc, ':')
		if !ok || open < 0 || colon < open {
			continue
		}
		n, err := strconv.Atoi(loc[colon+1:])
		if err != nil {
			continue
		}
		file := loc[open+1 : colon]
		if allocs[file] == nil {
			allocs[file] = make(map[int][]string)
		}
		fn, ok := strings.CutPrefix(instr, "CALL\truntime.")
		fn, _, _ = strings.Cut(fn, "(")
		if ok && allocation(fn) != "" && !slices.Contains(allocs[file][n], fn) {
			allocs[file][n] = append(allocs[file][n], fn)
		}
	}
	return allocs, nil
}
