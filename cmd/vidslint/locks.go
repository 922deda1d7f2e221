package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// The lock-discipline gate. It is whole-program and self-selecting: it
// walks every function of every loaded module package, so it applies
// wherever a sync.Mutex, RWMutex or Cond is used, with no package list.
// It models the repo's locking vocabulary:
//
//   - A lock is identified by (package, owning struct type, mutex
//     field) — "engine.shard.mu", "fastpath.callStripe.mu" — so every
//     instance of a struct shares one discipline. A package-level
//     mutex is "pkg.name"; any other operand keeps its expression text.
//   - A *queue lock* is a mutex declared in a struct that also carries
//     sync.Cond fields (the shard ring buffer). Queue locks guard
//     bounded hand-off state, so while one is held the gate forbids
//     blocking channel operations, select, and dynamic calls
//     (callbacks) — any of which can stall every producer parked on
//     the condition variable.
//   - Lock-order edges are observed whenever a mutex is acquired while
//     another is held, directly or through a static callee in any
//     package: the callee's acquire summary is the set of locks its
//     call closure takes, read off the index's call edges.
//     `//vids:lockorder A -> B <reason>` declares an edge the walk
//     cannot see — a callback registered at construction time that runs
//     under A and takes B. Cycles in the combined graph are
//     deadlocks-in-waiting and are reported.
//   - sync.Cond.Wait must sit inside a for statement: Wait's contract
//     allows spurious wakeups, so an if-guarded Wait is a latent race.
//   - No goroutine may be launched while any lock is held.
//
// The held-set walk is intraprocedural and source-ordered with a
// branch-local approximation: Lock/Unlock effects inside a branch do
// not leak past it, and a deferred Unlock keeps the lock held to the
// end of the function. Function literals are analyzed as separate
// bodies with an empty held set (they run at an unknown later time),
// and for the same reason contribute nothing to an acquire summary.
// A function that returns with a lock held, and a lock reached only
// through a function value or an interface, are not modelled.
type lockPass struct {
	ix   *index
	info *types.Info // of the body being walked
	// quiet suppresses the body-local findings while walking a package
	// that was loaded only as an import: its edges still count.
	quiet bool

	findings   []finding
	known      map[string]bool // every mutex field or package-level mutex of a loaded package
	queueLocks map[string]bool
	// edges[from][to] is the position where the ordering from→to was
	// first observed or declared; observed holds the walk's own.
	edges     map[string]map[string]token.Position
	observed  map[[2]string]bool
	summaries map[*funcNode]map[string]bool // locks a call to the function may acquire
	pending   []pendingLit                  // literals queued for separate walks
}

type pendingLit struct {
	lit  *ast.FuncLit
	info *types.Info
}

// checkLocks runs the lock gate over the program.
func checkLocks(ix *index) *lockPass {
	lp := &lockPass{
		ix:         ix,
		known:      make(map[string]bool),
		queueLocks: make(map[string]bool),
		edges:      make(map[string]map[string]token.Position),
		observed:   make(map[[2]string]bool),
		summaries:  make(map[*funcNode]map[string]bool),
	}
	pkgs := ix.a.sortedPkgs()
	for _, pi := range pkgs {
		lp.findLocks(pi)
	}
	for _, d := range ix.directives {
		if from, to, _ := lockorderEdge(d.payload); d.kind == dirLockorder && from != "" {
			lp.addEdge(from, to, d.pos)
		}
	}
	for _, pi := range pkgs {
		lp.info, lp.quiet = pi.info, !ix.a.analyzed[pi.path]
		for _, node := range pi.funcs {
			lp.walkBody(node.decl.Body, make(map[string]token.Position), 0)
		}
		for len(lp.pending) > 0 {
			lit := lp.pending[0]
			lp.pending = lp.pending[1:]
			lp.info = lit.info
			lp.walkBody(lit.lit.Body, make(map[string]token.Position), 0)
		}
	}
	lp.detectCycles()
	return lp
}

// findLocks records every mutex the package declares — struct fields
// and package-level variables — and marks as queue locks the fields of
// structs that also carry sync.Cond state.
func (lp *lockPass) findLocks(pi *pkgInfo) {
	isMutex := func(t types.Type) bool { return isSyncNamed(t, "Mutex") || isSyncNamed(t, "RWMutex") }
	for _, f := range pi.files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			var mutexes []string
			hasCond := false
			for _, field := range st.Fields.List {
				t := pi.info.TypeOf(field.Type)
				if isSyncNamed(t, "Cond") {
					hasCond = true
				}
				if isMutex(t) {
					for _, name := range field.Names {
						mutexes = append(mutexes, pi.pkg.Name()+"."+ts.Name.Name+"."+name.Name)
					}
				}
			}
			for _, m := range mutexes {
				lp.known[m] = true
				if hasCond {
					lp.queueLocks[m] = true
				}
			}
			return true
		})
	}
	scope := pi.pkg.Scope()
	for _, name := range scope.Names() {
		if v, ok := scope.Lookup(name).(*types.Var); ok && isMutex(v.Type()) {
			lp.known[pi.pkg.Name()+"."+name] = true
		}
	}
}

// acquires returns the locks a call to node may take: the Lock/RLock
// operations of its static call closure, literals excluded.
func (lp *lockPass) acquires(node *funcNode) map[string]bool {
	if sum, ok := lp.summaries[node]; ok {
		return sum
	}
	sum := make(map[string]bool)
	outsideLits := func(site *callSite) bool { return !site.inLit }
	lp.ix.walk([]*funcNode{node}, outsideLits, func(_ *closure, n *funcNode) {
		for _, site := range n.sites {
			if id, method, ok := lockOp(n.pkg.info, site.call); ok && !site.inLit && (method == "Lock" || method == "RLock") {
				sum[id] = true
			}
		}
	})
	lp.summaries[node] = sum
	return sum
}

// lockOp classifies a call as a mutex or condition-variable operation:
// it returns the lock/cond identity and the method name (Lock, Unlock,
// RLock, RUnlock, Wait, Signal, Broadcast).
func lockOp(info *types.Info, call *ast.CallExpr) (string, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", "", false
	}
	for _, name := range [...]string{"Mutex", "RWMutex", "Cond"} {
		if isSyncNamed(sig.Recv().Type(), name) {
			return lockIdent(info, sel.X), fn.Name(), true
		}
	}
	return "", "", false
}

// lockIdent names the mutex/cond operand: "pkg.Type.field" when it is
// a struct field, "pkg.name" for a package-level variable, otherwise
// the expression text (local locks).
func lockIdent(info *types.Info, expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if s := info.Selections[e]; s != nil && s.Kind() == types.FieldVal {
			t := s.Recv()
			if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
				t = p.Elem()
			}
			if p, isPtr := t.(*types.Pointer); isPtr {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + e.Sel.Name
			}
		}
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + e.Name
		}
	}
	return types.ExprString(expr)
}

func (lp *lockPass) addEdge(from, to string, pos token.Position) {
	m := lp.edges[from]
	if m == nil {
		m = make(map[string]token.Position)
		lp.edges[from] = m
	}
	if _, ok := m[to]; !ok {
		m[to] = pos
	}
}

func (lp *lockPass) report(pos token.Pos, format string, args ...any) {
	if !lp.quiet {
		lp.findings = append(lp.findings, finding{pos: lp.ix.a.fset.Position(pos), msg: fmt.Sprintf(format, args...)})
	}
}

// heldQueueLock returns the name of a held queue lock, if any.
func heldQueueLock(held map[string]token.Position, queue map[string]bool) string {
	var names []string
	for id := range held {
		if queue[id] {
			names = append(names, id)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return ""
	}
	return names[0]
}

func anyHeld(held map[string]token.Position) string {
	var names []string
	for id := range held {
		names = append(names, id)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return ""
	}
	return strings.Join(names, ", ")
}

// walkBody walks one function (or literal) body in source order,
// threading the held-lock set through straight-line code and giving
// each branch its own copy.
func (lp *lockPass) walkBody(body *ast.BlockStmt, held map[string]token.Position, loopDepth int) {
	for _, stmt := range body.List {
		lp.walkStmt(stmt, held, loopDepth)
	}
}

func (lp *lockPass) walkStmt(stmt ast.Stmt, held map[string]token.Position, loopDepth int) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		lp.walkBody(s, held, loopDepth)
	case *ast.ExprStmt:
		lp.scanExpr(s.X, held, loopDepth, true)
	case *ast.DeferStmt:
		if _, method, ok := lockOp(lp.info, s.Call); ok && (method == "Unlock" || method == "RUnlock") {
			return // deferred unlock: the lock stays held to the end of the walk
		}
		lp.scanExpr(s.Call, held, loopDepth, false)
	case *ast.GoStmt:
		if names := anyHeld(held); names != "" {
			lp.report(s.Pos(), "goroutine launched while holding %s: spawning under a lock hides the critical section's true extent", names)
		}
		// The goroutine body runs lock-free later; args evaluate now.
		for _, arg := range s.Call.Args {
			lp.scanExpr(arg, held, loopDepth, false)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			lp.pending = append(lp.pending, pendingLit{lit, lp.info})
		}
	case *ast.SendStmt:
		if q := heldQueueLock(held, lp.queueLocks); q != "" {
			lp.report(s.Pos(), "channel send while holding queue lock %s can block every producer parked on its condition variable", q)
		}
		lp.scanExpr(s.Chan, held, loopDepth, false)
		lp.scanExpr(s.Value, held, loopDepth, false)
	case *ast.SelectStmt:
		if q := heldQueueLock(held, lp.queueLocks); q != "" {
			lp.report(s.Pos(), "select while holding queue lock %s can block the shard hand-off", q)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				branch := maps.Clone(held)
				for _, st := range cc.Body {
					lp.walkStmt(st, branch, loopDepth)
				}
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			lp.walkStmt(s.Init, held, loopDepth)
		}
		lp.scanExpr(s.Cond, held, loopDepth, false)
		lp.walkBody(s.Body, maps.Clone(held), loopDepth)
		if s.Else != nil {
			lp.walkStmt(s.Else, maps.Clone(held), loopDepth)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			lp.walkStmt(s.Init, held, loopDepth)
		}
		if s.Cond != nil {
			lp.scanExpr(s.Cond, held, loopDepth, false)
		}
		body := maps.Clone(held)
		lp.walkBody(s.Body, body, loopDepth+1)
		if s.Post != nil {
			lp.walkStmt(s.Post, body, loopDepth+1)
		}
	case *ast.RangeStmt:
		lp.scanExpr(s.X, held, loopDepth, false)
		lp.walkBody(s.Body, maps.Clone(held), loopDepth+1)
	case *ast.SwitchStmt:
		if s.Init != nil {
			lp.walkStmt(s.Init, held, loopDepth)
		}
		if s.Tag != nil {
			lp.scanExpr(s.Tag, held, loopDepth, false)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				branch := maps.Clone(held)
				for _, st := range cc.Body {
					lp.walkStmt(st, branch, loopDepth)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			lp.walkStmt(s.Init, held, loopDepth)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				branch := maps.Clone(held)
				for _, st := range cc.Body {
					lp.walkStmt(st, branch, loopDepth)
				}
			}
		}
	case *ast.LabeledStmt:
		lp.walkStmt(s.Stmt, held, loopDepth)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			lp.scanExpr(rhs, held, loopDepth, false)
		}
		for _, lhs := range s.Lhs {
			lp.scanExpr(lhs, held, loopDepth, false)
		}
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			lp.scanExpr(res, held, loopDepth, false)
		}
	case *ast.DeclStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				lp.pending = append(lp.pending, pendingLit{lit, lp.info})
				return false
			}
			return true
		})
	}
}

// scanExpr examines one expression for lock operations, blocking
// receives, dynamic calls under queue locks, and nested literals.
// asStmt marks an expression-statement call, where Lock/Unlock mutate
// the held set.
func (lp *lockPass) scanExpr(expr ast.Expr, held map[string]token.Position, loopDepth int, asStmt bool) {
	switch e := ast.Unparen(expr).(type) {
	case *ast.FuncLit:
		lp.pending = append(lp.pending, pendingLit{e, lp.info})
		return
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			if q := heldQueueLock(held, lp.queueLocks); q != "" {
				lp.report(e.Pos(), "channel receive while holding queue lock %s can block the shard hand-off", q)
			}
		}
		lp.scanExpr(e.X, held, loopDepth, false)
		return
	case *ast.BinaryExpr:
		lp.scanExpr(e.X, held, loopDepth, false)
		lp.scanExpr(e.Y, held, loopDepth, false)
		return
	case *ast.CallExpr:
		lp.scanCall(e, held, loopDepth, asStmt)
		return
	case *ast.IndexExpr:
		lp.scanExpr(e.X, held, loopDepth, false)
		lp.scanExpr(e.Index, held, loopDepth, false)
		return
	case *ast.SelectorExpr:
		lp.scanExpr(e.X, held, loopDepth, false)
		return
	case *ast.StarExpr:
		lp.scanExpr(e.X, held, loopDepth, false)
		return
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				lp.scanExpr(kv.Value, held, loopDepth, false)
			} else {
				lp.scanExpr(el, held, loopDepth, false)
			}
		}
		return
	}
}

func (lp *lockPass) scanCall(call *ast.CallExpr, held map[string]token.Position, loopDepth int, asStmt bool) {
	for _, arg := range call.Args {
		lp.scanExpr(arg, held, loopDepth, false)
	}
	pos := lp.ix.a.fset.Position(call.Pos())
	if id, method, ok := lockOp(lp.info, call); ok {
		switch method {
		case "Lock", "RLock":
			for h := range held {
				if h == id {
					lp.report(call.Pos(), "%s acquired while already held (self-deadlock)", id)
					continue
				}
				lp.observe(h, id, pos)
			}
			if asStmt {
				held[id] = pos
			}
		case "Unlock", "RUnlock":
			if asStmt {
				delete(held, id)
			}
		case "Wait":
			if loopDepth == 0 {
				lp.report(call.Pos(), "sync.Cond.Wait on %s outside a for loop: spurious wakeups make if-guarded waits a race", id)
			}
		}
		return
	}
	site := lp.ix.calls[call]
	if site.callee != nil && len(held) > 0 {
		for h := range held {
			for l := range lp.acquires(site.callee) {
				if h == l {
					lp.report(call.Pos(), "call may re-acquire %s already held here (self-deadlock through %s)", h, site.callee.key)
					continue
				}
				lp.observe(h, l, pos)
			}
		}
		return
	}
	if site.dynamic() {
		if q := heldQueueLock(held, lp.queueLocks); q != "" {
			lp.report(call.Pos(), "callback invoked while holding queue lock %s: the callee can block or re-enter the shard", q)
		}
	}
}

// observe records an order the walk saw for itself.
func (lp *lockPass) observe(from, to string, pos token.Position) {
	lp.observed[[2]string{from, to}] = true
	lp.addEdge(from, to, pos)
}

// detectCycles finds cycles in the combined observed+declared
// lock-order graph and reports each once.
func (lp *lockPass) detectCycles() {
	nodes := make([]string, 0, len(lp.edges))
	for n := range lp.edges {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var stack []string
	seenCycles := make(map[string]bool)

	var visit func(n string)
	visit = func(n string) {
		color[n] = gray
		stack = append(stack, n)
		tos := make([]string, 0, len(lp.edges[n]))
		for to := range lp.edges[n] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			switch color[to] {
			case white:
				visit(to)
			case gray:
				// Back edge: extract the cycle from the stack.
				start := len(stack) - 1
				for start >= 0 && stack[start] != to {
					start--
				}
				if start < 0 {
					continue
				}
				cycle := append([]string(nil), stack[start:]...)
				canon := append([]string(nil), cycle...)
				sort.Strings(canon)
				sig := strings.Join(canon, "|")
				if seenCycles[sig] {
					continue
				}
				seenCycles[sig] = true
				lp.findings = append(lp.findings, finding{
					pos: lp.edges[n][to],
					msg: fmt.Sprintf("lock-order cycle: %s → %s — acquiring in both orders deadlocks under contention", strings.Join(cycle, " → "), to),
				})
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
	}
	for _, n := range nodes {
		if color[n] == white {
			visit(n)
		}
	}
}

// isSyncNamed reports whether t is sync.<name> or *sync.<name>.
func isSyncNamed(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}
