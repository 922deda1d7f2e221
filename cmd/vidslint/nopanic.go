package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// The nopanic gate proves the untrusted-input path free of runtime
// panics: over the static call closure of every //vids:nopanic root
// (the SIP/RTP parsers, the packet-path SIP scanner, the fast-path
// consult and the generated-dispatch step entrypoints — everything
// that touches raw network bytes), it asks the compiler. Every runtime
// panic call (panics below) that the shared -S listing (object.go)
// places on a line of a reached function is a site: an index or slice
// bounds check, a slice-to-array conversion, a zero-divisor or
// negative-shift check, a single-result type assertion or an explicit
// panic that the compiler's prove pass could not remove. Where a
// function's compiled body holds a panic inlined from outside the
// module — encoding/binary's bounds check is listed at
// encoding/binary/binary.go — the site is the call in that function
// that brought it in. Panics inlined from the panic-free packages below
// are their invariant checks (strings.Builder's copy check) and are not
// sites, nor is the panicwrap of the compiler's <autogenerated>
// pointer-receiver wrappers. The verdict is the pinned toolchain's
// (go1.24.0): another prove pass can keep or drop other checks.
//
// Beside the object code the gate keeps the rules it cannot read
// there, none of which needs a dataflow:
//
//   - a write to a map that is not a local bound only to make or a
//     literal: the nil-map panic is inside mapassign;
//   - a dereference of a local pointer that is bound to nothing but
//     nil: a fault, not a call;
//   - a make size that is neither a constant nor a len or cap: the
//     negative-size panic is inside makeslice;
//   - a truncating integer conversion used as an index: a 16-bit
//     counter silently wrapping into a "valid" index is a logic bomb,
//     not a bounds question;
//   - calls the analysis cannot resolve (function values, interface
//     methods), module callees without a body, and calls that leave
//     the module for a package not on the panic-free allowlist: an
//     unprovable callee is an unproven path.
//
// Unlike the noalloc gate, the traversal descends into //vids:coldpath
// functions — a crash has no cold path. Out of scope (documented
// policy, cross-checked by the native fuzz targets): panics behind
// pointer parameters and fields assumed non-nil per the caller
// contract, OOM, stack exhaustion, deadlock, and send-on-closed-channel
// — none of which an adversarial datagram can steer.

// panics are the runtime functions compiled code calls to panic. Any
// other runtime.panic* call is a site too, as a runtime panic; panicwrap
// is the nil-receiver check of an <autogenerated> wrapper.
var panics = []runtimeFn{
	{"panicIndex*", "index may be out of range"},
	{"panicSliceConvert", "slice-to-array conversion may get a short slice"},
	{"panicSlice*", "slice bounds may be out of range"},
	{"panicdivide", "integer divisor may be zero"},
	{"panicshift", "shift count may be negative"},
	{"panicdottype*", "single-result type assertion may fail"},
	{"panicnildottype", "single-result type assertion may get a nil interface"},
	{"gopanic", "explicit panic"},
}

// panicking returns the finding text of a call to runtime.fn, or ""
// when fn does not panic.
func panicking(fn string) string {
	if what := lookup(panics, fn); what != "" {
		return what
	}
	if strings.HasPrefix(fn, "panic") && fn != "panicwrap" {
		return fmt.Sprintf("runtime panic (runtime.%s)", fn)
	}
	return ""
}

// panicfreePackages are stdlib packages whose exported API cannot
// panic for any argument values the module passes: pure functions
// over slices/strings, arithmetic, formatting (fmt recovers user
// formatter panics), and the sync primitives (misuse panics like
// double-unlock are the lock gate's concern — they are not
// input-dependent).
var panicfreePackages = map[string]bool{
	"bytes":        true,
	"strings":      true,
	"strconv":      true,
	"errors":       true,
	"fmt":          true,
	"math":         true,
	"math/bits":    true,
	"sort":         true,
	"sync":         true,
	"sync/atomic":  true,
	"time":         true,
	"unicode":      true,
	"unicode/utf8": true,
	// The body of strings' functions, which the compiler inlines where
	// they are called: its checks are the invariant ones of strings.
	"internal/stringslite": true,
}

// panicfreeFuncs allowlists individual functions from packages that
// also export panicking APIs.
var panicfreeFuncs = map[string]bool{
	"container/heap.Init": true, // pure sibling of Push/Pop; interface calls inside resolve to module methods already scanned
	// The fixed-width codecs are inlined; the listing holds their bounds
	// checks, in the function they are inlined into.
	"encoding/binary.Uint16":    true,
	"encoding/binary.Uint32":    true,
	"encoding/binary.Uint64":    true,
	"encoding/binary.PutUint16": true,
	"encoding/binary.PutUint32": true,
	"encoding/binary.PutUint64": true,
}

// checkNopanic runs the panic-freedom gate over cl, the walk from the
// //vids:nopanic roots that cuts nowhere: each reached function's
// panic lines, the panics inlined into it from outside the module, and
// the source rules.
func checkNopanic(ix *index, cl *closure, obj *listing) (*gate, error) {
	g := &gate{
		ix: ix, cl: cl, kind: "nopanic", waiver: dirPanicOK,
		format: "nopanic: %s [untrusted path: %s]; add a dominating guard or justify with //vids:panic-ok <reason>",
	}
	bySymbol := make(map[string]*funcNode)
	for node := range cl.reached {
		bySymbol[node.symbol()] = node
		lines, err := obj.code(ix, node)
		if err != nil {
			return nil, err
		}
		tf := ix.a.fset.File(node.decl.Pos())
		for line := tf.Line(node.decl.Pos()); line <= tf.Line(node.decl.End()); line++ {
			for _, fn := range lines[line] {
				if what := panicking(fn); what != "" {
					g.site(node, tf.LineStart(line), what)
				}
			}
		}
		panicRules(g, node)
	}
	for sym, calls := range obj.outside {
		if node := owner(bySymbol, sym); node != nil {
			for _, c := range calls {
				inlinedPanic(g, obj, node, c)
			}
		}
	}
	return g, nil
}

// owner returns the function whose code the symbol is: the function
// itself, or the one a closure's symbol extends (pkg.F.func1).
func owner(bySymbol map[string]*funcNode, sym string) *funcNode {
	for {
		if node := bySymbol[sym]; node != nil {
			return node
		}
		i := strings.LastIndexByte(sym, '.')
		if i < 0 {
			return nil
		}
		sym = sym[:i]
	}
}

// everyEdge is the nopanic walk's edge rule: a crash has no cold path.
func everyEdge(*callSite) bool { return true }

// inlinedPanic reports a panic that node's compiled body holds at a
// position outside the module, in package pkg. The site is each call of
// node into pkg that the allowlist accepts (a call it rejects is a site
// already). A body with no call into pkg has the panic from a module
// callee inlined there; when the callee's own code holds it too, the
// callee reports it, and otherwise node's declaration is the site.
func inlinedPanic(g *gate, obj *listing, node *funcNode, c objCall) {
	src := filepath.ToSlash(strings.TrimPrefix(c.file, filepath.Join(runtime.GOROOT(), "src")+string(filepath.Separator)))
	pkg := path.Dir(src)
	if panicfreePackages[pkg] {
		return
	}
	what := fmt.Sprintf("%s, inlined from %s:%d)", strings.TrimSuffix(panicking(c.fn), ")"), src, c.line)
	called := false
	for _, site := range node.sites {
		if site.kind == callStatic && site.fn.Pkg() != nil && site.fn.Pkg().Path() == pkg {
			called = true
			if panicfreeFuncs[pkg+"."+site.fn.Name()] {
				g.site(node, site.call.Pos(), what)
			}
		}
	}
	if called {
		return
	}
	for _, site := range node.sites {
		if site.callee != nil && slices.Contains(obj.outside[site.callee.symbol()], c) {
			return
		}
	}
	g.site(node, node.decl.Pos(), what)
}

// panicRules applies the source rules and the call rules to node.
func panicRules(g *gate, node *funcNode) {
	info := node.pkg.info
	site := func(pos token.Pos, format string, args ...any) { g.site(node, pos, fmt.Sprintf(format, args...)) }
	mapWrite := func(x ast.Expr) {
		idx, ok := ast.Unparen(x).(*ast.IndexExpr)
		if !ok {
			return
		}
		if _, isMap := typeOf(info, idx.X).(*types.Map); !isMap {
			return
		}
		if lv := localOf(node, idx.X); lv == nil || !lv.complete || !lv.all(func(v ast.Expr) bool {
			_, lit := ast.Unparen(v).(*ast.CompositeLit)
			return lit || v != nil && isBuiltin(g.ix, v, "make")
		}) {
			site(idx.Pos(), "write to map %s, which is not a local bound only to make or a literal", types.ExprString(idx.X))
		}
	}
	deref := func(x ast.Expr, pos token.Pos) {
		if _, ptr := typeOf(info, x).(*types.Pointer); !ptr {
			return
		}
		if lv := localOf(node, x); lv != nil && lv.complete && lv.all(func(v ast.Expr) bool { return v == nil || info.Types[v].IsNil() }) {
			site(pos, "dereference of nil pointer %s", types.ExprString(x))
		}
	}
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				mapWrite(l)
			}
		case *ast.IncDecStmt:
			mapWrite(x.X)
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				deref(x.X, x.Pos())
			}
		case *ast.StarExpr:
			if !info.Types[x].IsType() {
				deref(x.X, x.Pos())
			}
		case *ast.IndexExpr:
			switch typeOf(info, x.X).(type) {
			case *types.Slice, *types.Array, *types.Pointer, *types.Basic:
				if conv, src, ok := truncatingConversion(info, x.Index); ok {
					site(x.Pos(), "truncating conversion %s of %s used as an index can silently wrap into bounds", types.ExprString(conv), src)
				}
			}
		}
		return true
	})
	for _, s := range node.sites {
		pos := s.call.Pos()
		switch s.kind {
		case callBuiltin:
			if s.name != "make" {
				continue
			}
			for _, a := range s.call.Args[1:] {
				if info.Types[a].Value == nil && !isBuiltin(g.ix, a, "len") && !isBuiltin(g.ix, a, "cap") {
					site(a.Pos(), "make size %s is not a constant or a len or cap", types.ExprString(a))
				}
			}
		case callInterface:
			site(pos, "interface method call %s cannot be statically resolved to a panic-free body", s.name)
		case callValue:
			site(pos, "dynamic call through %s cannot be statically proven panic-free", s.name)
		case callComputed:
			site(pos, "dynamic call through a computed function value cannot be statically proven panic-free")
		case callStatic:
			fn := s.fn
			if fn.Pkg() == nil {
				continue // error.Error and friends from the universe scope
			}
			path := fn.Pkg().Path()
			switch {
			case s.module && s.callee == nil:
				site(pos, "call to %s has no body in the module index (generated or assembly?)", fn.FullName())
			case !s.module && !panicfreePackages[path] && !panicfreeFuncs[path+"."+fn.Name()]:
				site(pos, "call into %s.%s is not on the panic-free allowlist", path, fn.Name())
			}
		}
	}
}

// typeOf returns the underlying type of x, or nil.
func typeOf(info *types.Info, x ast.Expr) types.Type {
	if t := info.TypeOf(x); t != nil {
		return t.Underlying()
	}
	return nil
}

// isBuiltin reports whether x is a call of the named builtin.
func isBuiltin(ix *index, x ast.Expr, name string) bool {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	site := ix.calls[call]
	return ok && site != nil && site.kind == callBuiltin && site.name == name
}

// truncatingConversion matches a non-constant integer conversion that
// narrows its operand's storage width.
func truncatingConversion(info *types.Info, idx ast.Expr) (*ast.CallExpr, string, bool) {
	call, ok := ast.Unparen(idx).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 || info.Types[call].Value != nil {
		return nil, "", false
	}
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	if !ok || !tv.IsType() {
		return nil, "", false
	}
	dst, ok := tv.Type.Underlying().(*types.Basic)
	src, ok2 := typeOf(info, call.Args[0]).(*types.Basic)
	if !ok || !ok2 || dst.Info()&src.Info()&types.IsInteger == 0 {
		return nil, "", false
	}
	if sizes := types.SizesFor("gc", runtime.GOARCH); sizes.Sizeof(dst) >= sizes.Sizeof(src) {
		return nil, "", false
	}
	return call, src.String(), true
}
