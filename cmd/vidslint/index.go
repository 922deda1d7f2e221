package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The program index is the one whole-program structure every rule set
// reads: the module's function table, every call expression classified
// once by resolveCall, and every analyzer directive in one table. The
// gates (noalloc, nopanic, the lock gate, spec-registry, drift, guard
// purity, the per-package style rules) are rule sets over it; none of
// them resolves a call target, walks call edges or parses a comment on
// its own.

// The directive vocabulary, harvested from doc and body comments:
//
//	//vids:noalloc [note]      — noalloc-gate root: the whole static
//	                             call closure of this function is
//	                             scanned for heap-allocation sites.
//	//vids:alloc-ok <reason>   — function level (doc comment): every
//	                             allocation site lexically inside this
//	                             function is justified by <reason>;
//	                             line level (body comment): justifies
//	                             sites on the same or the next line.
//	//vids:coldpath <reason>   — this function is off the per-packet
//	                             path; the noalloc walk does not
//	                             descend into it.
//	//vids:nopanic [note]      — nopanic-gate root: the whole static
//	                             call closure of this function is
//	                             scanned for potential runtime panic
//	                             sites (it handles untrusted input).
//	//vids:panic-ok <reason>   — like alloc-ok, for the nopanic gate.
//	//vids:lockorder A -> B <reason>
//	                           — declares a lock-order edge the lock
//	                             walk cannot observe (a callback that
//	                             runs under A and takes B); A and B are
//	                             pkg.Type.field names.
//	//vidslint:allow wallclock [reason]
//	                           — a deliberate wall-clock read on the
//	                             same or the next line.
//
// Every suppression is freshness-checked like a speccover waiver: a
// directive that no longer suppresses, cuts or declares anything is
// itself a finding, so justifications are deleted with the code they
// excused instead of rotting in place.
const (
	dirNoalloc   = "vids:noalloc"
	dirAllocOK   = "vids:alloc-ok"
	dirColdpath  = "vids:coldpath"
	dirNopanic   = "vids:nopanic"
	dirPanicOK   = "vids:panic-ok"
	dirLockorder = "vids:lockorder"
	dirWallclock = "vidslint:allow wallclock"
)

var directiveNames = []string{dirNoalloc, dirAllocOK, dirColdpath, dirNopanic, dirPanicOK, dirLockorder, dirWallclock}

// Directive scopes: a comment on a line of its own or at the end of a
// line, the doc comment of a function with a body, or the doc comment
// of any other declaration.
const (
	scopeLine = "line"
	scopeFunc = "function"
	scopeDecl = "declaration"
)

// directive is one analyzer comment. used records that it did its job
// this run: a waiver suppressed a finding, a coldpath cut a walk, a
// lockorder declared an edge the lock walk did not see itself (the
// sweep decides that one).
type directive struct {
	kind    string
	scope   string
	payload string // the text after the name: a reason, or "A -> B reason"
	pos     token.Position
	pkg     *pkgInfo
	fn      *funcNode // the documented (function scope) or enclosing (line scope) function
	used    bool
}

// parseDirective is the one reader of analyzer comments.
func parseDirective(comment string) (kind, payload string, ok bool) {
	text, ok := strings.CutPrefix(comment, "//")
	if !ok {
		return "", "", false
	}
	for _, name := range directiveNames {
		if text == name {
			return name, "", true
		}
		if rest, ok := strings.CutPrefix(text, name+" "); ok {
			return name, strings.TrimSpace(strings.TrimLeft(rest, " —-")), true
		}
	}
	return "", "", false
}

// callKind is resolveCall's classification of a call target.
type callKind int

const (
	callConversion callKind = iota // T(x): typ is the target type
	callBuiltin                    // len, append, panic, …: name is the builtin
	callFuncLit                    // func() {…}()
	callStatic                     // a declared function or a concrete method: fn is set
	callInterface                  // an interface method: name is the method
	callValue                      // a function value, field or variable: name says which
	callComputed                   // anything else (a call's result, an index expression, …)
)

// callSite is one classified call expression.
type callSite struct {
	call  *ast.CallExpr
	kind  callKind
	fn    *types.Func
	name  string
	typ   types.Type
	obj   types.Object // callValue through a plain identifier: the variable
	inLit bool         // lexically inside a function literal of the enclosing body

	// callee is the module function a callStatic site lands in, when the
	// index holds its body; module says whether fn belongs to the module
	// at all (a module callee without a body is a finding for the gates).
	callee *funcNode
	module bool
}

// dynamic reports whether the analysis cannot name the callee's body.
func (c *callSite) dynamic() bool {
	return c.kind == callInterface || c.kind == callValue || c.kind == callComputed
}

// resolveCall classifies the expression in call position. It is the
// only place that decides what a call target is.
func resolveCall(info *types.Info, fun ast.Expr) callSite {
	fun = ast.Unparen(fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return callSite{kind: callConversion, typ: tv.Type}
	}
	switch fx := fun.(type) {
	case *ast.FuncLit:
		return callSite{kind: callFuncLit}
	case *ast.Ident:
		switch obj := info.Uses[fx].(type) {
		case *types.Builtin:
			return callSite{kind: callBuiltin, name: obj.Name()}
		case *types.Func:
			return callSite{kind: callStatic, fn: obj}
		case *types.Var:
			return callSite{kind: callValue, name: "function value " + fx.Name, obj: obj}
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[fx]; sel != nil {
			switch sel.Kind() {
			case types.MethodVal:
				if types.IsInterface(sel.Recv()) {
					return callSite{kind: callInterface, name: fx.Sel.Name}
				}
				if fn, ok := sel.Obj().(*types.Func); ok {
					return callSite{kind: callStatic, fn: fn}
				}
			case types.FieldVal:
				return callSite{kind: callValue, name: "function field " + fx.Sel.Name}
			case types.MethodExpr:
				if fn, ok := sel.Obj().(*types.Func); ok {
					return callSite{kind: callStatic, fn: fn}
				}
			}
		}
		switch obj := info.Uses[fx.Sel].(type) {
		case *types.Func: // pkg.Func
			return callSite{kind: callStatic, fn: obj}
		case *types.Var: // pkg.Var
			return callSite{kind: callValue, name: "function variable " + fx.Sel.Name}
		}
	}
	return callSite{kind: callComputed}
}

// funcNode is one module function in the index.
type funcNode struct {
	key   string
	pkg   *pkgInfo
	decl  *ast.FuncDecl
	sites []*callSite           // every call in the body, literals included, in source order
	dirs  map[string]*directive // function-scope directives by kind
}

// name returns a human-readable short name (pkg.Func or
// pkg.(Type).Method) for call-path diagnostics.
func (n *funcNode) name() string {
	pkg := n.pkg.path
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		pkg = pkg[i+1:]
	}
	if n.decl.Recv != nil && len(n.decl.Recv.List) == 1 {
		if recv := recvTypeName(n.decl.Recv.List[0].Type); recv != "" {
			return pkg + ".(" + recv + ")." + n.decl.Name.Name
		}
	}
	return pkg + "." + n.decl.Name.Name
}

// funcKey names a function by package path, receiver type name (if
// any) and function name: a total order for deterministic walks.
func funcKey(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
		return fn.FullName()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.FullName()
}

// recvTypeName extracts the receiver type name from a FuncDecl
// receiver field ("*Wheel" and "Wheel" both yield "Wheel").
func recvTypeName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver, unused in this module
		return recvTypeName(e.X)
	}
	return ""
}

// index is the whole-program structure: built once per run after the
// requested directories are loaded (tests that load more afterwards
// extend it; a package is never indexed twice).
type index struct {
	a          *analyzer
	funcs      map[string]*funcNode
	byDecl     map[*ast.FuncDecl]*funcNode
	calls      map[*ast.CallExpr]*callSite
	litVars    map[types.Object]*ast.FuncLit // `name := func() {…}` bindings
	directives []*directive
	lines      map[string]map[int]*directive // line-scope directives by file and line
	indexed    map[*pkgInfo]bool
}

// index returns the program index over every package loaded so far.
func (a *analyzer) index() *index {
	if a.ix == nil {
		a.ix = &index{
			a:       a,
			funcs:   make(map[string]*funcNode),
			byDecl:  make(map[*ast.FuncDecl]*funcNode),
			calls:   make(map[*ast.CallExpr]*callSite),
			litVars: make(map[types.Object]*ast.FuncLit),
			lines:   make(map[string]map[int]*directive),
			indexed: make(map[*pkgInfo]bool),
		}
	}
	var fresh []*pkgInfo
	for _, pi := range a.sortedPkgs() {
		if !a.ix.indexed[pi] {
			fresh = append(fresh, pi)
		}
	}
	a.ix.add(fresh...)
	return a.ix
}

// add indexes packages: first every function and directive, then every
// call, so a call resolves to its callee whatever the order of pkgs.
func (ix *index) add(pkgs ...*pkgInfo) {
	for _, pi := range pkgs {
		ix.indexed[pi] = true
		for _, f := range pi.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pi.info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &funcNode{key: funcKey(fn), pkg: pi, decl: fd, dirs: make(map[string]*directive)}
				if _, dup := ix.funcs[node.key]; !dup {
					ix.funcs[node.key], ix.byDecl[fd] = node, node
					pi.funcs = append(pi.funcs, node)
				}
			}
			ix.readDirectives(pi, f)
		}
	}
	for _, pi := range pkgs {
		for _, f := range pi.files {
			for _, d := range f.Decls {
				fd, _ := d.(*ast.FuncDecl)
				ix.classify(pi, d, ix.byDecl[fd], false)
			}
		}
	}
}

// readDirectives files every analyzer comment of f in the table.
func (ix *index) readDirectives(pi *pkgInfo, f *ast.File) {
	docs := make(map[*ast.CommentGroup]ast.Decl)
	ast.Inspect(f, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Doc != nil {
				docs[d.Doc] = d
			}
		case *ast.GenDecl:
			if d.Doc != nil {
				docs[d.Doc] = d
			}
		}
		return true
	})
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			kind, payload, ok := parseDirective(c.Text)
			if !ok {
				continue
			}
			d := &directive{kind: kind, scope: scopeLine, payload: payload, pos: ix.a.fset.Position(c.Pos()), pkg: pi}
			if decl, isDoc := docs[cg]; isDoc {
				d.scope = scopeDecl
				fd, _ := decl.(*ast.FuncDecl)
				if d.fn = ix.byDecl[fd]; d.fn != nil {
					d.scope = scopeFunc
					d.fn.dirs[kind] = d
				}
			} else {
				for _, decl := range f.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= c.Pos() && c.Pos() < fd.End() {
						d.fn = ix.byDecl[fd]
					}
				}
				m := ix.lines[d.pos.Filename]
				if m == nil {
					m = make(map[int]*directive)
					ix.lines[d.pos.Filename] = m
				}
				m[d.pos.Line] = d
			}
			ix.directives = append(ix.directives, d)
		}
	}
}

// classify resolves every call expression under root — a top-level
// declaration, or a function literal inside one — and records which
// locals are bound to function literals (guard purity and drift follow
// a call through such a binding).
func (ix *index) classify(pi *pkgInfo, root ast.Node, node *funcNode, inLit bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if n != root {
				ix.classify(pi, n, node, true)
				return false
			}
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				break
			}
			for i, lhs := range x.Lhs {
				id, isIdent := lhs.(*ast.Ident)
				lit, isLit := ast.Unparen(x.Rhs[i]).(*ast.FuncLit)
				if !isIdent || !isLit {
					continue
				}
				if obj := pi.info.Defs[id]; obj != nil {
					ix.litVars[obj] = lit
				} else if obj := pi.info.Uses[id]; obj != nil {
					ix.litVars[obj] = lit
				}
			}
		case *ast.CallExpr:
			site := resolveCall(pi.info, x.Fun)
			site.call, site.inLit = x, inLit
			if site.kind == callStatic && site.fn.Pkg() != nil && ix.a.inModule(site.fn.Pkg().Path()) {
				site.module = true
				site.callee = ix.funcs[funcKey(site.fn)]
			}
			ix.calls[x] = &site
			if node != nil {
				node.sites = append(node.sites, &site)
			}
		}
		return true
	})
}

// eachCall visits the classified calls under n in source order.
func (ix *index) eachCall(n ast.Node, visit func(*callSite)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if site := ix.calls[call]; site != nil {
				visit(site)
			}
		}
		return true
	})
}

// bodyOf returns the body a function-valued expression denotes, when
// the index can tell: a literal, a local bound to one, or a declared
// module function or method.
func (ix *index) bodyOf(info *types.Info, expr ast.Expr) *ast.BlockStmt {
	switch site := resolveCall(info, expr); site.kind {
	case callFuncLit:
		return ast.Unparen(expr).(*ast.FuncLit).Body
	case callValue:
		if lit := ix.litVars[site.obj]; lit != nil {
			return lit.Body
		}
	case callStatic:
		if node := ix.funcs[funcKey(site.fn)]; node != nil {
			return node.decl.Body
		}
	}
	return nil
}

// roots returns the analyzed functions carrying the given root
// directive, in key order.
func (ix *index) roots(kind string) []*funcNode {
	var out []*funcNode
	for _, n := range ix.funcs {
		if n.dirs[kind] != nil && ix.a.analyzed[n.pkg.path] {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// closure is the record of one walk: which functions it reached and
// through which caller first.
type closure struct {
	reached map[*funcNode]bool
	parent  map[*funcNode]*funcNode
}

// walk is the one traversal of call edges: breadth-first from roots
// over the static module callees of each reached body, in key order,
// following an edge only when descend accepts the call site. visit, if
// not nil, sees each reached function once, after its parent is known.
func (ix *index) walk(roots []*funcNode, descend func(*callSite) bool, visit func(*closure, *funcNode)) *closure {
	cl := &closure{reached: make(map[*funcNode]bool), parent: make(map[*funcNode]*funcNode)}
	queue := append([]*funcNode(nil), roots...)
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		if cl.reached[node] {
			continue
		}
		cl.reached[node] = true
		if visit != nil {
			visit(cl, node)
		}
		var callees []*funcNode
		for _, site := range node.sites {
			if site.callee != nil && descend(site) {
				callees = append(callees, site.callee)
			}
		}
		sort.Slice(callees, func(i, j int) bool { return callees[i].key < callees[j].key })
		for _, c := range callees {
			if cl.reached[c] {
				continue
			}
			if _, known := cl.parent[c]; !known {
				cl.parent[c] = node
			}
			queue = append(queue, c)
		}
	}
	return cl
}

// path renders the call path from the walk's root down to node, e.g.
// "sipmsg.Parse → sipmsg.parseHeaderLine".
func (cl *closure) path(node *funcNode) string {
	var chain []string
	for cur := node; cur != nil; cur = cl.parent[cur] {
		chain = append(chain, cur.name())
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return strings.Join(chain, " → ")
}

// gate is what the noalloc and nopanic rule sets share: a walk over a
// root directive's closure whose sites a waiver directive can excuse.
type gate struct {
	ix       *index
	cl       *closure
	kind     string // the findings' kind
	root     string // the directive that marks a root
	waiver   string // the directive that suppresses a site
	format   string // the finding text around (what, call path)
	findings []finding
}

// run walks the closure of the gate's roots, scanning each reached
// function once.
func (g *gate) run(descend func(*callSite) bool, scan func(*funcNode)) {
	g.cl = g.ix.walk(g.ix.roots(g.root), descend, func(cl *closure, node *funcNode) {
		g.cl = cl
		scan(node)
	})
}

// site records one potential finding, honoring a line-level waiver
// first and the enclosing function-level one second.
func (g *gate) site(node *funcNode, pos token.Pos, what string) {
	p := g.ix.a.fset.Position(pos)
	if g.ix.waived(g.waiver, p) {
		return
	}
	if d := node.dirs[g.waiver]; d != nil {
		d.used = true
		return
	}
	g.findings = append(g.findings, finding{pos: p, msg: fmt.Sprintf(g.format, what, g.cl.path(node)), kind: g.kind})
}

// waived reports whether a line directive of the given kind covers
// pos — on the same line or the line above — and marks it used.
func (ix *index) waived(kind string, pos token.Position) bool {
	m := ix.lines[pos.Filename]
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		if d := m[line]; d != nil && d.kind == kind {
			d.used = true
			return true
		}
	}
	return false
}

// siteWaivers words the freshness findings of the two site waivers.
var siteWaivers = map[string]struct{ root, why, finding, site string }{
	dirAllocOK: {dirNoalloc, "why is this allocation acceptable on the hot path?", "hot-path allocation finding", "allocation site"},
	dirPanicOK: {dirNopanic, "why can this site not panic at runtime?", "nopanic finding", "potential panic site"},
}

// sweep is the one freshness check: every directive of an analyzed
// package that has no reason, or did nothing this run, is a finding.
// closures holds the noalloc and nopanic walks by root directive.
func (ix *index) sweep(closures map[string]*closure, locks *lockPass) []finding {
	var out []finding
	for _, d := range ix.directives {
		if !ix.a.analyzed[d.pkg.path] {
			continue
		}
		pos, on := d.pos, ""
		if d.scope == scopeFunc {
			pos, on = ix.a.fset.Position(d.fn.decl.Pos()), d.fn.name()
		}
		report := func(format string, args ...any) {
			out = append(out, finding{pos: pos, msg: fmt.Sprintf(format, args...), kind: "directive"})
		}
		switch d.kind {
		case dirAllocOK, dirPanicOK:
			w := siteWaivers[d.kind]
			switch {
			case d.scope == scopeLine && d.payload == "":
				report("//%s needs a non-empty justification (%s)", d.kind, w.why)
			case d.scope == scopeLine && !d.used:
				report("stale //%s: no %s on this or the next line — delete the waiver or move it to the site it justifies", d.kind, w.finding)
			case d.scope != scopeFunc:
				// on a type or variable declaration a waiver covers nothing
			case d.payload == "":
				report("//%s on %s needs a non-empty justification", d.kind, on)
			case !closures[w.root].reached[d.fn]:
				report("stale //%s on %s: the function is not reached from any //%s root", d.kind, on, w.root)
			case !d.used:
				report("stale //%s on %s: the function body has no %s left to justify", d.kind, on, w.site)
			}
		case dirColdpath:
			if d.scope != scopeFunc {
				break
			}
			switch {
			case d.payload == "":
				report("//%s on %s needs a non-empty justification", d.kind, on)
			case !d.used:
				report("stale //%s on %s: no //%s closure ever reaches this function — delete the directive", d.kind, on, dirNoalloc)
			}
			if d.fn.dirs[dirNoalloc] != nil {
				report("%s is both //%s and //%s — a function cannot be a hot-path root and off the hot path at once", on, dirNoalloc, d.kind)
			}
		case dirWallclock:
			if !d.used {
				report("stale //%s: no wall-clock read on this or the next line (or the package is not simulation-driven) — delete the directive", d.kind)
			}
		case dirLockorder:
			// A declaration does its job when it adds an order between
			// two real locks that the walk did not see for itself.
			from, to, reason := lockorderEdge(d.payload)
			d.used = locks.known[from] && locks.known[to] && !locks.observed[[2]string{from, to}]
			switch {
			case from == "":
				report("//%s needs the form `//%s pkg.Type.field -> pkg.Type.field <reason>`", d.kind, d.kind)
			case !locks.known[from] || !locks.known[to]:
				report("//%s %s -> %s names a lock that is no mutex field of a loaded package", d.kind, from, to)
			case !d.used:
				report("stale //%s %s -> %s: the lock walk observes this order itself — delete the directive", d.kind, from, to)
			case reason == "":
				report("//%s %s -> %s needs a non-empty justification (which callback runs under the first lock and takes the second?)", d.kind, from, to)
			}
		}
	}
	return out
}

// lockorderEdge splits a lockorder payload "A -> B reason"; from is
// empty when the payload does not have that form.
func lockorderEdge(payload string) (from, to, reason string) {
	from, rest, found := strings.Cut(payload, "->")
	from = strings.TrimSpace(from)
	to, reason, _ = strings.Cut(strings.TrimSpace(rest), " ")
	if !found || from == "" || to == "" || strings.ContainsAny(from, " \t") {
		return "", "", ""
	}
	return from, to, strings.TrimSpace(strings.TrimLeft(reason, " —-"))
}

// inventory lists every suppression of the analyzed packages — the
// five directive kinds that silence or bend a gate — for the -json
// report and the committed WAIVERS.json.
func (ix *index) inventory() []jsonWaiver {
	out := []jsonWaiver{}
	for _, d := range ix.directives {
		if !ix.a.analyzed[d.pkg.path] || d.kind == dirNoalloc || d.kind == dirNopanic {
			continue
		}
		w := jsonWaiver{File: d.pos.Filename, Line: d.pos.Line, Directive: "//" + d.kind, Reason: d.payload, Used: d.used, Scope: d.scope}
		if d.scope == scopeFunc {
			// A function-level directive is reported where the gates anchor
			// its findings: at the declaration, not at the comment.
			w.Line = ix.a.fset.Position(d.fn.decl.Pos()).Line
		}
		if d.fn != nil {
			w.Func = d.fn.name()
		}
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Directive < out[j].Directive
	})
	return out
}
