package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The escape gate's model of the Go allocator, tuned for this
// repository's hot-path idioms (PRs 3–4):
//
//   - make/new, &T{...}, map and slice literals, string concatenation,
//     go statements, function literals and bound-method values are
//     allocation sites.
//   - append is accepted only in the self-append form
//     `x = append(x, ...)` / `x = append(x[:0], ...)`: growth is
//     amortized against reused capacity, which the AllocsPerRun
//     ceilings in alloc_test.go bound at runtime. Any other append
//     destination is a finding.
//   - string([]byte) / []byte(string) conversions are findings except
//     in the two forms the compiler compiles allocation-free: a map
//     index key `m[string(b)]` and a comparison operand
//     `string(b) == s`.
//   - converting, passing or returning a non-pointer-shaped value as
//     an interface boxes it; pointers, maps, channels and funcs fit in
//     the interface word and do not.
//   - calls the analysis cannot resolve statically — function values,
//     interface methods — are findings: an unprovable callee is an
//     unproven hot path.
//   - calls out of the module are findings unless the package or
//     function is on the allocation-free allowlist below.
//
// Map iteration and value-struct composite literals are deliberately
// not flagged: neither allocates (a non-escaping struct literal lives
// in its frame; flagging every one would drown the signal).

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

// escapePass is the noalloc rule set: the allocation model above over
// the static call closure of every //vids:noalloc root. Each finding
// carries the call path from the root, so a reviewer sees *why* a
// function is hot before judging the justification.
type escapePass struct {
	*gate
}

// checkNoalloc runs the allocation/escape gate: one walk from the
// annotated roots that stops at //vids:coldpath callees, scanning each
// reached body once.
func checkNoalloc(ix *index) *gate {
	ep := &escapePass{&gate{
		ix: ix, kind: "noalloc", root: dirNoalloc, waiver: dirAllocOK,
		format: "noalloc: %s [hot path: %s]; justify with //vids:alloc-ok <reason> or restructure",
	}}
	ep.run(staysHot, ep.scanFunc)
	return ep.gate
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

// scanFunc scans one function body for allocation sites.
func (ep *escapePass) scanFunc(node *funcNode) {
	info := node.pkg.info
	selfAppend := make(map[ast.Expr]bool)
	var stack []ast.Node
	var sigs []*types.Signature
	if fn, ok := info.Defs[node.decl.Name].(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok {
			sigs = append(sigs, sig)
		}
	}

	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		if n == nil {
			if _, wasLit := stack[len(stack)-1].(*ast.FuncLit); wasLit && len(sigs) > 0 {
				sigs = sigs[:len(sigs)-1]
			}
			stack = stack[:len(stack)-1]
			return true
		}
		parent := parentSkippingParens(stack)
		switch x := n.(type) {
		case *ast.FuncLit:
			ep.site(node, x.Pos(), "function literal allocates a closure")
			sig, _ := info.TypeOf(x).(*types.Signature)
			sigs = append(sigs, sig)

		case *ast.GoStmt:
			ep.site(node, x.Pos(), "go statement allocates a goroutine")

		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, isLit := ast.Unparen(x.X).(*ast.CompositeLit); isLit {
					ep.site(node, x.Pos(), "composite literal escapes to the heap (&T{...})")
				}
			}

		case *ast.CompositeLit:
			if u, ok := parent.(*ast.UnaryExpr); ok && u.Op == token.AND {
				break // already flagged at the & above
			}
			switch info.TypeOf(x).Underlying().(type) {
			case *types.Map:
				ep.site(node, x.Pos(), "map literal allocates")
			case *types.Slice:
				ep.site(node, x.Pos(), "slice literal allocates its backing array")
			}

		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(info.TypeOf(x)) {
				if tv, ok := info.Types[x]; !ok || tv.Value == nil { // constants fold at compile time
					ep.site(node, x.Pos(), "string concatenation allocates")
				}
			}

		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.MethodVal && !isCallFun(stack, x) {
				ep.site(node, x.Pos(), "method value allocates a bound-method closure")
			}

		case *ast.AssignStmt:
			ep.scanAssign(node, x, info, selfAppend)

		case *ast.ReturnStmt:
			if len(sigs) > 0 {
				ep.scanReturn(node, x, sigs[len(sigs)-1], info)
			}

		case *ast.CallExpr:
			ep.scanCall(node, ep.ix.calls[x], parent, info, selfAppend)
		}
		stack = append(stack, n)
		return true
	})
}

// scanAssign handles the assignment-borne rules: self-append
// recognition, map-growth on index assignment, and interface boxing.
func (ep *escapePass) scanAssign(node *funcNode, as *ast.AssignStmt, info *types.Info, selfAppend map[ast.Expr]bool) {
	if len(as.Lhs) == len(as.Rhs) {
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			if site := ep.ix.calls[call]; site.kind == callBuiltin && site.name == "append" &&
				types.ExprString(as.Lhs[i]) == types.ExprString(appendBase(call.Args[0])) {
				selfAppend[call] = true
			}
		}
	}
	for _, lhs := range as.Lhs {
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if _, isMap := info.TypeOf(idx.X).Underlying().(*types.Map); isMap {
				ep.site(node, idx.Pos(), "map assignment may grow the bucket array")
			}
		}
	}
	if len(as.Lhs) == len(as.Rhs) && as.Tok == token.ASSIGN {
		for i, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
				continue
			}
			lt := info.TypeOf(lhs)
			if lt == nil || !types.IsInterface(lt) {
				continue
			}
			if boxes(info, as.Rhs[i]) {
				ep.site(node, as.Rhs[i].Pos(), fmt.Sprintf("assigning %s into an interface boxes it", info.TypeOf(as.Rhs[i])))
			}
		}
	}
}

// scanReturn flags returns that box a concrete value into an
// interface-typed result.
func (ep *escapePass) scanReturn(node *funcNode, ret *ast.ReturnStmt, sig *types.Signature, info *types.Info) {
	if sig == nil || len(ret.Results) != sig.Results().Len() {
		return // naked return or multi-value passthrough: nothing new escapes here
	}
	for i, res := range ret.Results {
		rt := sig.Results().At(i).Type()
		if !types.IsInterface(rt) {
			continue
		}
		if boxes(info, res) {
			ep.site(node, res.Pos(), fmt.Sprintf("returning %s as %s boxes it", info.TypeOf(res), rt))
		}
	}
}

// scanCall applies the call rules to one classified call: conversions
// and builtins that allocate, dynamic calls the analysis cannot follow,
// module callees without a body, and non-module callees off the
// allowlist; interface-typed parameters are checked for boxing.
func (ep *escapePass) scanCall(node *funcNode, site *callSite, parent ast.Node, info *types.Info, selfAppend map[ast.Expr]bool) {
	call := site.call
	switch site.kind {
	case callConversion:
		ep.checkConversion(node, call, site.typ, parent, info)
	case callFuncLit:
		// the literal itself was flagged; its body is scanned inline
	case callBuiltin:
		switch site.name {
		case "make":
			ep.site(node, call.Pos(), "make allocates")
		case "new":
			ep.site(node, call.Pos(), "new allocates")
		case "append":
			if !selfAppend[call] {
				ep.site(node, call.Pos(), "append whose result is not reassigned to its own operand allocates or copies")
			}
		}
	case callInterface:
		ep.site(node, call.Pos(), fmt.Sprintf("interface method call %s cannot be statically resolved", site.name))
	case callValue:
		ep.site(node, call.Pos(), fmt.Sprintf("dynamic call through %s cannot be proven allocation-free", site.name))
	case callComputed:
		ep.site(node, call.Pos(), "dynamic call through a computed function value cannot be proven allocation-free")
	case callStatic:
		fn := site.fn
		if fn.Pkg() == nil {
			return // error.Error and friends from the universe scope
		}
		path := fn.Pkg().Path()
		switch {
		case site.module && site.callee == nil:
			ep.site(node, call.Pos(), fmt.Sprintf("call to %s has no body in the module index (generated or assembly?)", fn.FullName()))
		case !site.module && !noallocPackages[path] && !noallocFuncs[path+"."+fn.Name()]:
			ep.site(node, call.Pos(), fmt.Sprintf("call into %s.%s is not on the allocation-free allowlist", path, fn.Name()))
			return
		}
		sig, _ := fn.Type().(*types.Signature)
		ep.checkArgBoxing(node, call, sig, info)
	}
}

// checkArgBoxing flags arguments boxed into interface-typed
// parameters, and variadic calls that materialize an argument slice.
func (ep *escapePass) checkArgBoxing(node *funcNode, call *ast.CallExpr, sig *types.Signature, info *types.Info) {
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through whole; no per-element boxing
			}
			if i == params.Len()-1 && params.Len() > 0 {
				ep.site(node, call.Args[i].Pos(), "variadic call allocates its argument slice")
			}
			if params.Len() > 0 {
				if sl, ok := params.At(params.Len() - 1).Type().Underlying().(*types.Slice); ok {
					pt = sl.Elem()
				}
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		if boxes(info, arg) {
			ep.site(node, arg.Pos(), fmt.Sprintf("argument boxes %s into %s", info.TypeOf(arg), pt))
		}
	}
}

// checkConversion applies the conversion rules: interface boxing, and
// string↔bytes copies outside the compiler's allocation-free forms.
func (ep *escapePass) checkConversion(node *funcNode, call *ast.CallExpr, target types.Type, parent ast.Node, info *types.Info) {
	if len(call.Args) != 1 {
		return
	}
	src := info.TypeOf(call.Args[0])
	if src == nil {
		return
	}
	if types.IsInterface(target) {
		if boxes(info, call.Args[0]) {
			ep.site(node, call.Pos(), fmt.Sprintf("conversion boxes %s into %s", src, target))
		}
		return
	}
	tu, su := target.Underlying(), src.Underlying()
	s2b := isStringType(tu) && isBytesType(su)
	b2s := isBytesType(tu) && isStringType(su)
	if !s2b && !b2s {
		return
	}
	switch p := parent.(type) {
	case *ast.IndexExpr:
		if _, isMap := info.TypeOf(p.X).Underlying().(*types.Map); isMap && ast.Unparen(p.Index) == call {
			return // m[string(b)]: the compiler probes without materializing the key
		}
	case *ast.BinaryExpr:
		switch p.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			return // string(b) == s: compiled as a byte comparison
		}
	}
	ep.site(node, call.Pos(), fmt.Sprintf("conversion %s(%s) copies", target, src))
}

// boxes reports whether storing expr in an interface allocates: true
// for concrete non-pointer-shaped values, false for nil, existing
// interfaces and word-sized reference types.
func boxes(info *types.Info, expr ast.Expr) bool {
	if tv, ok := info.Types[expr]; ok && tv.IsNil() {
		return false
	}
	t := info.TypeOf(expr)
	if t == nil || types.IsInterface(t) {
		return false
	}
	return !pointerShaped(t)
}

// pointerShaped reports whether t occupies exactly one pointer word,
// making interface conversion a header write instead of an allocation.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
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

// parentSkippingParens returns the nearest non-paren ancestor on the
// walk stack.
func parentSkippingParens(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		return stack[i]
	}
	return nil
}

// isCallFun reports whether sel is (possibly through parentheses) the
// callee position of the nearest enclosing call expression.
func isCallFun(stack []ast.Node, sel ast.Expr) bool {
	if call, ok := parentSkippingParens(stack).(*ast.CallExpr); ok {
		return ast.Unparen(call.Fun) == sel
	}
	return false
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isBytesType(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	el, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (el.Kind() == types.Byte || el.Kind() == types.Rune || el.Kind() == types.Uint8 || el.Kind() == types.Int32)
}
