package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The nopanic gate proves the untrusted-input path free of runtime
// panics: over the static call closure of every //vids:nopanic root
// (the SIP/RTP parsers, the packet-path SIP scanner, the fast-path
// consult and the generated-dispatch step entrypoints — everything
// that touches raw network bytes), it reports each potential panic
// site that the bounds facts engine (bounds.go) cannot discharge:
//
//   - index and slice expressions not dominated by a sufficient
//     len/bounds guard;
//   - fixed-width encoding/binary decoders on slices not proven long
//     enough (they panic on short input);
//   - single-result type assertions (comma-ok and type switches are
//     total);
//   - writes to possibly-nil maps and dereferences of provably-nil
//     pointers;
//   - integer division/modulo by a zero-able operand and shifts by a
//     possibly-negative count;
//   - explicit panic calls, make with a possibly-negative size, and
//     slice-to-array conversions without a length proof;
//   - truncating integer conversions used as indices (a 16-bit
//     counter silently wrapping into a "valid" index is a logic bomb,
//     not a bounds question);
//   - calls the analysis cannot resolve (function values, interface
//     methods) or that leave the module for a package not on the
//     panic-free allowlist: an unprovable callee is an unproven path.
//
// Unlike the noalloc gate, the traversal descends into //vids:coldpath
// functions — a crash has no cold path. Out of scope (documented
// policy, cross-checked by the native fuzz targets): panics behind
// pointer parameters assumed non-nil per the caller contract, OOM,
// stack exhaustion, deadlock, and send-on-closed-channel — none of
// which an adversarial datagram can steer.

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
}

// panicfreeFuncs allowlists individual functions from packages that
// also export panicking APIs.
var panicfreeFuncs = map[string]bool{
	"container/heap.Init": true, // pure sibling of Push/Pop; interface calls inside resolve to module methods already scanned
}

// binaryWidths maps the encoding/binary fixed-width codec methods to
// the minimum slice length they require — they panic on less.
var binaryWidths = map[string]int64{
	"Uint16":    2,
	"Uint32":    4,
	"Uint64":    8,
	"PutUint16": 2,
	"PutUint32": 4,
	"PutUint64": 8,
}

// checkNopanic runs the panic-freedom gate: one walk from the
// //vids:nopanic roots that cuts nowhere, with a flow-sensitive scan
// of each reached body.
func checkNopanic(ix *index) *gate {
	g := &gate{
		ix: ix, kind: "nopanic", root: dirNopanic, waiver: dirPanicOK,
		format: "nopanic: %s [untrusted path: %s]; add a dominating guard or justify with //vids:panic-ok <reason>",
	}
	g.run(everyEdge, func(node *funcNode) {
		sc := &panicScan{gate: g, node: node, info: node.pkg.info, skipAsserts: make(map[*ast.TypeAssertExpr]bool)}
		sc.block(node.decl.Body.List, newFacts(sc.info))
	})
	return g
}

// everyEdge is the nopanic walk's edge rule: a crash has no cold path.
func everyEdge(*callSite) bool { return true }

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// panicScan is the per-function flow-sensitive walk.
type panicScan struct {
	gate        *gate
	node        *funcNode
	info        *types.Info
	skipAsserts map[*ast.TypeAssertExpr]bool
}

func (sc *panicScan) site(pos token.Pos, what string) {
	sc.gate.site(sc.node, pos, what)
}

// block walks a statement list, threading the facts environment and
// stopping at the first terminating statement.
func (sc *panicScan) block(stmts []ast.Stmt, env *facts) (*facts, bool) {
	for _, s := range stmts {
		var term bool
		env, term = sc.stmt(s, env)
		if term {
			return env, true
		}
	}
	return env, false
}

// stmt processes one statement: scan its expressions for panic sites
// under the current facts, then update the facts. Returns the
// outgoing environment and whether the statement terminates the
// enclosing path (return, panic, break/continue/goto).
func (sc *panicScan) stmt(s ast.Stmt, env *facts) (*facts, bool) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		inner, term := sc.block(st.List, env.clone())
		if term {
			return inner, true
		}
		return inner, false

	case *ast.ExprStmt:
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok && sc.isPanicCall(call) {
			for _, a := range call.Args {
				sc.expr(a, env)
			}
			sc.site(call.Pos(), "explicit panic call")
			return env, true
		}
		sc.expr(st.X, env)
		sc.invalidateSideEffects(st.X, env)
		return env, false

	case *ast.AssignStmt:
		return sc.assign(st, env), false

	case *ast.IncDecStmt:
		sc.expr(st.X, env)
		key := exprKey(st.X)
		old, had := env.ints[key]
		env.invalidate(baseIdent(st.X))
		if had {
			d := int64(1)
			if st.Tok == token.DEC {
				d = -1
			}
			shifted := old
			if shifted.hasLo {
				shifted.lo += d
			}
			if shifted.hasHi {
				shifted.hi += d
			}
			if shifted.hasLenRef {
				shifted.lenDelta += d
			}
			shifted.nonzero = false
			env.mergeInt(key, shifted)
		}
		return env, false

	case *ast.DeclStmt:
		sc.decl(st, env)
		return env, false

	case *ast.ReturnStmt:
		for _, r := range st.Results {
			sc.expr(r, env)
		}
		return env, true

	case *ast.BranchStmt:
		// break/continue/goto leave this block; fallthrough is handled
		// by the switch walker's conservative merge.
		return env, st.Tok != token.FALLTHROUGH

	case *ast.IfStmt:
		return sc.ifStmt(st, env)

	case *ast.ForStmt:
		return sc.forStmt(st, env), false

	case *ast.RangeStmt:
		return sc.rangeStmt(st, env), false

	case *ast.SwitchStmt:
		return sc.switchStmt(st, env), false

	case *ast.TypeSwitchStmt:
		return sc.typeSwitchStmt(st, env), false

	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			inner := env.clone()
			if cc.Comm != nil {
				inner, _ = sc.stmt(cc.Comm, inner)
			}
			sc.block(cc.Body, inner)
		}
		sc.dropWrites(st.Body, env)
		return env, false

	case *ast.DeferStmt:
		sc.expr(st.Call, env)
		sc.invalidateSideEffects(st.Call, env)
		return env, false

	case *ast.GoStmt:
		sc.expr(st.Call, env)
		sc.invalidateSideEffects(st.Call, env)
		return env, false

	case *ast.SendStmt:
		sc.expr(st.Chan, env)
		sc.expr(st.Value, env)
		return env, false

	case *ast.LabeledStmt:
		return sc.stmt(st.Stmt, env)

	case *ast.EmptyStmt:
		return env, false
	}
	return env, false
}

// assign handles the richest statement: comma-ok recognition, LHS
// panic checks (slice index writes, nil-map writes), invalidation and
// fact learning.
func (sc *panicScan) assign(st *ast.AssignStmt, env *facts) *facts {
	// v, ok := x.(T) — the comma-ok form is total; mark before scanning.
	if len(st.Lhs) == 2 && len(st.Rhs) == 1 {
		if ta, ok := ast.Unparen(st.Rhs[0]).(*ast.TypeAssertExpr); ok {
			sc.skipAsserts[ta] = true
		}
	}
	for _, r := range st.Rhs {
		sc.expr(r, env)
	}
	for _, l := range st.Lhs {
		sc.lhsExpr(l, env)
	}
	for _, r := range st.Rhs {
		sc.invalidateSideEffects(r, env)
	}
	for _, l := range st.Lhs {
		if _, isIdent := ast.Unparen(l).(*ast.Ident); isIdent {
			env.invalidate(baseIdent(l))
		} else {
			env.invalidateContents(baseIdent(l))
		}
	}
	if len(st.Lhs) == len(st.Rhs) && (st.Tok == token.ASSIGN || st.Tok == token.DEFINE) {
		for i := range st.Lhs {
			env.learnAssign(st.Lhs[i], st.Rhs[i])
		}
	}
	// Compound assignment `x op= y`: x's facts are gone (invalidated);
	// nothing further to learn soundly. Division still needs checking.
	switch st.Tok {
	case token.QUO_ASSIGN, token.REM_ASSIGN:
		if len(st.Rhs) == 1 && isIntExpr(sc.info, st.Lhs[0]) {
			sc.checkDivisor(st.Rhs[0], env, st.Rhs[0].Pos())
		}
	case token.SHL_ASSIGN, token.SHR_ASSIGN:
		if len(st.Rhs) == 1 {
			sc.checkShift(st.Rhs[0], env)
		}
	}
	return env
}

// lhsExpr checks assignment targets: slice-index writes need the same
// bounds proof as reads, and map writes need a non-nil map.
func (sc *panicScan) lhsExpr(l ast.Expr, env *facts) {
	l = ast.Unparen(l)
	if id, ok := l.(*ast.Ident); ok {
		_ = id
		return
	}
	if idx, ok := l.(*ast.IndexExpr); ok {
		t := sc.info.TypeOf(idx.X)
		if t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				sc.expr(idx.X, env)
				sc.expr(idx.Index, env)
				key := exprKey(idx.X)
				switch {
				case env.defNil[key]:
					sc.site(idx.Pos(), fmt.Sprintf("write to nil map %s", key))
				case !env.nonNil[key]:
					sc.site(idx.Pos(), fmt.Sprintf("write to map %s not proven non-nil (guard with `if %s == nil` or prove the make)", key, key))
				}
				return
			}
		}
	}
	sc.expr(l, env)
}

func (sc *panicScan) decl(st *ast.DeclStmt, env *facts) {
	gd, ok := st.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, v := range vs.Values {
			sc.expr(v, env)
		}
		for i, name := range vs.Names {
			env.invalidate(name.Name)
			if i < len(vs.Values) {
				env.learnAssign(name, vs.Values[i])
				continue
			}
			// Zero value: ints are 0, reference types are nil.
			t := sc.info.TypeOf(name)
			if t == nil {
				continue
			}
			switch t.Underlying().(type) {
			case *types.Map, *types.Pointer, *types.Slice, *types.Chan, *types.Signature, *types.Interface:
				env.defNil[name.Name] = true
			case *types.Basic:
				if isIntExpr(sc.info, name) {
					env.mergeInt(name.Name, intFact{hasLo: true, lo: 0, hasHi: true, hi: 0})
				}
			}
		}
	}
}

func (sc *panicScan) ifStmt(st *ast.IfStmt, env *facts) (*facts, bool) {
	if st.Init != nil {
		env, _ = sc.stmt(st.Init, env)
	}
	sc.expr(st.Cond, env)
	thenEnv := env.clone()
	thenEnv.applyCond(st.Cond, false)
	thenOut, thenTerm := sc.block(st.Body.List, thenEnv)
	elseEnv := env.clone()
	elseEnv.applyCond(st.Cond, true)
	var out *facts
	var term bool
	if st.Else != nil {
		elseOut, elseTerm := sc.stmt(st.Else, elseEnv)
		switch {
		case thenTerm && elseTerm:
			out, term = env, true
		case thenTerm:
			out = elseOut
		case elseTerm:
			out = thenOut
		default:
			out = thenOut.join(elseOut)
		}
	} else {
		if thenTerm {
			// The bail idiom: past this point the condition is false.
			out = elseEnv
		} else {
			out = thenOut.join(elseEnv)
		}
	}
	// Identifiers introduced in the init statement are scoped to the
	// if; drop their facts so a shadowed outer name is not polluted.
	if st.Init != nil {
		for name := range declaredNames(st.Init) {
			out.invalidate(name)
		}
	}
	return out, term
}

func (sc *panicScan) forStmt(st *ast.ForStmt, env *facts) *facts {
	loopEnv := env.clone()
	if st.Init != nil {
		loopEnv, _ = sc.stmt(st.Init, loopEnv)
	}
	binds, conts := sc.writeSets(st.Body)
	if st.Post != nil {
		pb, pc := sc.writeSets(st.Post)
		for n := range pb {
			binds[n] = true
		}
		for n := range pc {
			conts[n] = true
		}
	}
	for n := range binds {
		// A variable the loop only ever increments keeps its lower
		// bound — increments never lower it. Everything else about it
		// (upper bounds, symbolic caps) is loop-variant and dies here.
		if sc.loopIncrementOnly(st, n) {
			if f, ok := loopEnv.ints[n]; ok && f.hasLo {
				lo := f.lo
				loopEnv.invalidate(n)
				loopEnv.mergeInt(n, intFact{hasLo: true, lo: lo})
				continue
			}
		}
		loopEnv.invalidate(n)
	}
	for n := range conts {
		loopEnv.invalidateContents(n)
	}
	if st.Cond != nil {
		sc.expr(st.Cond, loopEnv)
		loopEnv.applyCond(st.Cond, false)
	}
	bodyOut, _ := sc.block(st.Body.List, loopEnv)
	if st.Post != nil {
		sc.stmt(st.Post, bodyOut)
	}
	// After the loop: anything it assigned is unknown; init-scoped
	// names die with the loop. Increment-only vars keep their lower
	// bound here too — zero or more i++ never drop below the entry lo.
	out := env
	for n := range binds {
		if sc.loopIncrementOnly(st, n) {
			if f, ok := out.ints[n]; ok && f.hasLo {
				lo := f.lo
				out.invalidate(n)
				out.mergeInt(n, intFact{hasLo: true, lo: lo})
				continue
			}
		}
		out.invalidate(n)
	}
	for n := range conts {
		out.invalidateContents(n)
	}
	if st.Init != nil {
		for n := range declaredNames(st.Init) {
			out.invalidate(n)
		}
	}
	return out
}

// loopIncrementOnly reports whether every write to name inside the
// loop body and post statement is an i++ on the bare identifier.
func (sc *panicScan) loopIncrementOnly(st *ast.ForStmt, name string) bool {
	if !incrementOnly(st.Body, name) {
		return false
	}
	return st.Post == nil || incrementOnly(st.Post, name)
}

func (sc *panicScan) rangeStmt(st *ast.RangeStmt, env *facts) *facts {
	sc.expr(st.X, env)
	binds, conts := sc.writeSets(st.Body)
	loopEnv := env.clone()
	for n := range binds {
		loopEnv.invalidate(n)
	}
	for n := range conts {
		loopEnv.invalidateContents(n)
	}
	var keyName string
	if st.Key != nil {
		if id, ok := ast.Unparen(st.Key).(*ast.Ident); ok {
			keyName = id.Name
		}
	}
	var valName string
	if st.Value != nil {
		if id, ok := ast.Unparen(st.Value).(*ast.Ident); ok {
			valName = id.Name
		}
	}
	loopEnv.invalidate(keyName)
	loopEnv.invalidate(valName)
	// Ranging a slice/string/array binds the key to a valid index.
	if keyName != "" && keyName != "_" && !binds[keyName] && !conts[keyName] {
		if t := sc.info.TypeOf(st.X); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice, *types.Array, *types.Pointer:
				loopEnv.mergeInt(keyName, intFact{hasLo: true, lo: 0, hasLenRef: true, lenRef: exprKey(st.X), lenDelta: -1})
			case *types.Basic:
				if isStringType(t) {
					loopEnv.mergeInt(keyName, intFact{hasLo: true, lo: 0, hasLenRef: true, lenRef: exprKey(st.X), lenDelta: -1})
				}
			}
		}
	}
	sc.block(st.Body.List, loopEnv)
	out := env
	for n := range binds {
		out.invalidate(n)
	}
	for n := range conts {
		out.invalidateContents(n)
	}
	out.invalidate(keyName)
	out.invalidate(valName)
	return out
}

func (sc *panicScan) switchStmt(st *ast.SwitchStmt, env *facts) *facts {
	if st.Init != nil {
		env, _ = sc.stmt(st.Init, env)
	}
	if st.Tag != nil {
		sc.expr(st.Tag, env)
	}
	hasFallthrough := switchHasFallthrough(st.Body)
	for _, c := range st.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		inner := env.clone()
		if hasFallthrough {
			// A case body may run after an earlier case's assignments;
			// only entry facts minus all case assignments are safe.
			sc.dropWrites(st.Body, inner)
		} else if len(cc.List) == 1 {
			if st.Tag != nil {
				inner.applyCompare(st.Tag, token.EQL, cc.List[0])
			} else {
				inner.applyCond(cc.List[0], false)
			}
		}
		for _, e := range cc.List {
			sc.expr(e, env)
		}
		sc.block(cc.Body, inner)
	}
	sc.dropWrites(st.Body, env)
	if st.Init != nil {
		for n := range declaredNames(st.Init) {
			env.invalidate(n)
		}
	}
	return env
}

// dropWrites invalidates everything a statement tree may write,
// distinguishing binding writes from content writes.
func (sc *panicScan) dropWrites(n ast.Node, env *facts) {
	binds, conts := sc.writeSets(n)
	for name := range binds {
		env.invalidate(name)
	}
	for name := range conts {
		env.invalidateContents(name)
	}
}

func (sc *panicScan) typeSwitchStmt(st *ast.TypeSwitchStmt, env *facts) *facts {
	if st.Init != nil {
		env, _ = sc.stmt(st.Init, env)
	}
	// The `x.(type)` assertion is total; mark it before scanning.
	ast.Inspect(st.Assign, func(n ast.Node) bool {
		if ta, ok := n.(*ast.TypeAssertExpr); ok {
			sc.skipAsserts[ta] = true
		}
		return true
	})
	switch a := st.Assign.(type) {
	case *ast.ExprStmt:
		sc.expr(a.X, env)
	case *ast.AssignStmt:
		for _, r := range a.Rhs {
			sc.expr(r, env)
		}
	}
	for _, c := range st.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		sc.block(cc.Body, env.clone())
	}
	sc.dropWrites(st.Body, env)
	return env
}

// expr scans one expression tree for panic sites under env,
// short-circuit-aware for && and ||.
func (sc *panicScan) expr(e ast.Expr, env *facts) {
	if e == nil {
		return
	}
	switch x := e.(type) {
	case *ast.Ident, *ast.BasicLit, *ast.Ellipsis,
		*ast.ArrayType, *ast.StructType, *ast.FuncType, *ast.InterfaceType, *ast.MapType, *ast.ChanType:
		return

	case *ast.ParenExpr:
		sc.expr(x.X, env)

	case *ast.FuncLit:
		// A closure runs with unknown outer state: scan its body under
		// an empty environment so its own guards still count.
		sc.block(x.Body.List, newFacts(sc.info))

	case *ast.CompositeLit:
		for _, el := range x.Elts {
			sc.expr(el, env)
		}

	case *ast.KeyValueExpr:
		sc.expr(x.Key, env)
		sc.expr(x.Value, env)

	case *ast.SelectorExpr:
		sc.expr(x.X, env)
		sc.checkNilDeref(x.X, env, x.Pos())

	case *ast.StarExpr:
		sc.expr(x.X, env)
		sc.checkNilDeref(x.X, env, x.Pos())

	case *ast.UnaryExpr:
		sc.expr(x.X, env)

	case *ast.BinaryExpr:
		sc.binary(x, env)

	case *ast.IndexExpr:
		sc.index(x, env)

	case *ast.IndexListExpr:
		sc.expr(x.X, env) // generic instantiation; indices are types

	case *ast.SliceExpr:
		sc.slice(x, env)

	case *ast.TypeAssertExpr:
		sc.expr(x.X, env)
		if x.Type != nil && !sc.skipAsserts[x] {
			sc.site(x.Pos(), fmt.Sprintf("single-result type assertion %s panics on mismatch (use the comma-ok form)", types.ExprString(x)))
		}

	case *ast.CallExpr:
		sc.call(x, env)
	}
}

func (sc *panicScan) binary(x *ast.BinaryExpr, env *facts) {
	switch x.Op {
	case token.LAND:
		sc.expr(x.X, env)
		rhsEnv := env.clone()
		rhsEnv.applyCond(x.X, false)
		sc.expr(x.Y, rhsEnv)
		return
	case token.LOR:
		sc.expr(x.X, env)
		rhsEnv := env.clone()
		rhsEnv.applyCond(x.X, true)
		sc.expr(x.Y, rhsEnv)
		return
	}
	sc.expr(x.X, env)
	sc.expr(x.Y, env)
	switch x.Op {
	case token.QUO, token.REM:
		if isIntExpr(sc.info, x.X) {
			sc.checkDivisor(x.Y, env, x.Y.Pos())
		}
	case token.SHL, token.SHR:
		sc.checkShift(x.Y, env)
	}
}

func (sc *panicScan) checkDivisor(y ast.Expr, env *facts, pos token.Pos) {
	if _, ok := env.constVal(y); ok {
		return // constant zero would not compile
	}
	r := env.rangeOf(y)
	if r.nonzero || (r.hasLo && r.lo >= 1) || (r.hasHi && r.hi <= -1) {
		return
	}
	sc.site(pos, fmt.Sprintf("integer division/modulo by %s, not proven nonzero", exprKey(y)))
}

func (sc *panicScan) checkShift(y ast.Expr, env *facts) {
	if _, ok := env.constVal(y); ok {
		return // negative constant shifts do not compile
	}
	r := env.rangeOf(y)
	if r.hasLo && r.lo >= 0 {
		return
	}
	sc.site(y.Pos(), fmt.Sprintf("shift by %s, not proven non-negative", exprKey(y)))
}

// checkNilDeref flags dereferences of pointers the environment proves
// nil. Pointer parameters and fields are assumed non-nil (the caller
// contract; the fuzz targets cross-check), so only locally-provable
// nils fire.
func (sc *panicScan) checkNilDeref(x ast.Expr, env *facts, pos token.Pos) {
	t := sc.info.TypeOf(x)
	if t == nil {
		return
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		return
	}
	if env.defNil[exprKey(x)] {
		sc.site(pos, fmt.Sprintf("dereference of nil pointer %s", exprKey(x)))
	}
}

func (sc *panicScan) index(x *ast.IndexExpr, env *facts) {
	sc.expr(x.X, env)
	// Generic instantiation (F[T]) indexes with a type, not a value.
	if tv, ok := sc.info.Types[x.Index]; ok && tv.IsType() {
		return
	}
	sc.expr(x.Index, env)
	t := sc.info.TypeOf(x.X)
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Map:
		return // map reads are total
	case *types.Slice, *types.Array, *types.Pointer, *types.Basic:
		if b, isBasic := u.(*types.Basic); isBasic && b.Info()&types.IsString == 0 {
			return
		}
		if p, isPtr := u.(*types.Pointer); isPtr {
			if _, ok := arrayLen(p); !ok {
				return
			}
		}
		if conv, src, ok := sc.truncatingConversion(x.Index); ok {
			sc.site(x.Pos(), fmt.Sprintf("truncating conversion %s of %s used as an index can silently wrap into bounds", types.ExprString(conv), src))
			return
		}
		if !env.indexOK(x.X, x.Index) {
			sc.site(x.Pos(), fmt.Sprintf("index %s is not dominated by a bounds check", types.ExprString(x)))
		}
	}
}

// truncatingConversion matches a non-constant integer conversion that
// narrows its operand's storage width.
func (sc *panicScan) truncatingConversion(idx ast.Expr) (*ast.CallExpr, string, bool) {
	call, ok := ast.Unparen(idx).(*ast.CallExpr)
	if !ok {
		return nil, "", false
	}
	if _, isConst := sc.info.Types[call]; isConst && sc.info.Types[call].Value != nil {
		return nil, "", false
	}
	tv, ok := sc.info.Types[ast.Unparen(call.Fun)]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return nil, "", false
	}
	dst, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || dst.Info()&types.IsInteger == 0 {
		return nil, "", false
	}
	st := sc.info.TypeOf(call.Args[0])
	if st == nil {
		return nil, "", false
	}
	src, ok := st.Underlying().(*types.Basic)
	if !ok || src.Info()&types.IsInteger == 0 {
		return nil, "", false
	}
	db, sb := intKindBits(dst.Kind()), intKindBits(src.Kind())
	if db == 0 || sb == 0 || db >= sb {
		return nil, "", false
	}
	return call, src.String(), true
}

func (sc *panicScan) slice(x *ast.SliceExpr, env *facts) {
	sc.expr(x.X, env)
	sc.expr(x.Low, env)
	sc.expr(x.High, env)
	sc.expr(x.Max, env)
	t := sc.info.TypeOf(x.X)
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array:
	case *types.Pointer:
		if _, ok := arrayLen(u); !ok {
			return
		}
	case *types.Basic:
		if u.Info()&types.IsString == 0 {
			return
		}
	default:
		return
	}
	if !env.sliceExprOK(x) {
		sc.site(x.Pos(), fmt.Sprintf("slice expression %s is not dominated by a bounds check", types.ExprString(x)))
	}
}

func (sc *panicScan) isPanicCall(call *ast.CallExpr) bool {
	site := sc.gate.ix.calls[call]
	return site.kind == callBuiltin && site.name == "panic"
}

// call applies the call rules to one classified call: conversions and
// builtins that can panic, static module/stdlib callees, and the
// dynamic calls the analysis cannot follow.
func (sc *panicScan) call(call *ast.CallExpr, env *facts) {
	for _, a := range call.Args {
		sc.expr(a, env)
	}
	site := sc.gate.ix.calls[call]
	if fx, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && site.kind != callConversion {
		sc.expr(fx.X, env)
	}
	switch site.kind {
	case callConversion:
		sc.checkConversionPanic(call, site.typ, env)
	case callFuncLit:
		sc.block(ast.Unparen(call.Fun).(*ast.FuncLit).Body.List, newFacts(sc.info))
	case callBuiltin:
		sc.builtin(site.name, call, env)
	case callStatic:
		sc.staticCallee(site, env)
	case callInterface:
		sc.site(call.Pos(), fmt.Sprintf("interface method call %s cannot be statically resolved to a panic-free body", site.name))
	case callValue:
		sc.site(call.Pos(), fmt.Sprintf("dynamic call through %s cannot be statically proven panic-free", site.name))
	case callComputed:
		sc.site(call.Pos(), "dynamic call through a computed function value cannot be statically proven panic-free")
	}
}

func (sc *panicScan) builtin(name string, call *ast.CallExpr, env *facts) {
	switch name {
	case "panic":
		// Expression-position panic (e.g. inside a deferred thunk).
		sc.site(call.Pos(), "explicit panic call")
	case "make":
		// make panics when a size is negative or len > cap.
		for _, a := range call.Args[1:] {
			r := env.rangeOf(a)
			if !(r.hasLo && r.lo >= 0) {
				sc.site(a.Pos(), fmt.Sprintf("make size %s is not proven non-negative", exprKey(a)))
			}
		}
	}
}

// staticCallee handles a statically resolved callee: module functions
// need a body in the index (the walk follows them), encoding/binary
// codecs get a length proof, other externals must be allowlisted.
func (sc *panicScan) staticCallee(site *callSite, env *facts) {
	call, fn := site.call, site.fn
	if fn.Pkg() == nil {
		return // error.Error and friends from the universe scope
	}
	path := fn.Pkg().Path()
	if site.module {
		if site.callee == nil {
			sc.site(call.Pos(), fmt.Sprintf("call to %s has no body in the module index (generated or assembly?)", fn.FullName()))
		}
		return
	}
	if path == "encoding/binary" {
		if width, ok := binaryWidths[fn.Name()]; ok {
			if len(call.Args) >= 1 && !env.argLenAtLeast(call.Args[0], width) {
				sc.site(call.Pos(), fmt.Sprintf("binary.%s panics on slices shorter than %d bytes and %s is not proven that long", fn.Name(), width, exprKey(call.Args[0])))
			}
			return
		}
	}
	if panicfreePackages[path] || panicfreeFuncs[path+"."+fn.Name()] {
		return
	}
	sc.site(call.Pos(), fmt.Sprintf("call into %s.%s is not on the panic-free allowlist", path, fn.Name()))
}

// checkConversionPanic flags the conversions that can panic at
// runtime: slice-to-array (and slice-to-array-pointer) without a
// length proof.
func (sc *panicScan) checkConversionPanic(call *ast.CallExpr, target types.Type, env *facts) {
	if len(call.Args) != 1 {
		return
	}
	src := sc.info.TypeOf(call.Args[0])
	if src == nil {
		return
	}
	if _, isSlice := src.Underlying().(*types.Slice); !isSlice {
		return
	}
	n, ok := arrayLen(target)
	if !ok {
		return
	}
	if !env.argLenAtLeast(call.Args[0], n) {
		sc.site(call.Pos(), fmt.Sprintf("conversion to %s panics when len(%s) < %d and no guard proves it", target, exprKey(call.Args[0]), n))
	}
}

// invalidateSideEffects drops facts about variables a statement may
// have mutated through a pointer: address-taken operands (full
// invalidation — the callee can reassign through the pointer) and
// pointer-receiver method call receivers (content invalidation — the
// method gets a copy of the pointer, the binding survives).
func (sc *panicScan) invalidateSideEffects(e ast.Expr, env *facts) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				env.invalidate(baseIdent(x.X))
			}
		case *ast.CallExpr:
			env.invalidateContents(sc.mutatedReceiver(x))
		}
		return true
	})
}

// mutatedReceiver returns the base identifier of x in a call x.m(…)
// whose method has a pointer receiver — the callee may write through
// it — and "" for any other call.
func (sc *panicScan) mutatedReceiver(call *ast.CallExpr) string {
	fx, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if site := sc.gate.ix.calls[call]; ok && site.kind == callStatic {
		if sig, ok := site.fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if _, ptr := sig.Recv().Type().(*types.Pointer); ptr {
				return baseIdent(fx.X)
			}
		}
	}
	return ""
}

// writeSets gathers every identifier a statement tree may write,
// split into binding writes (the variable itself is reassigned:
// ident assignment, inc/dec, range vars, var decls, address taken)
// and content writes (something reachable through it is mutated:
// index/field/pointer stores, pointer-receiver method calls).
func (sc *panicScan) writeSets(n ast.Node) (binds, conts map[string]bool) {
	binds, conts = make(map[string]bool), make(map[string]bool)
	if n == nil {
		return binds, conts
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok {
					binds[id.Name] = true
				} else if b := baseIdent(l); b != "" {
					conts[b] = true
				}
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				binds[id.Name] = true
			} else if b := baseIdent(x.X); b != "" {
				conts[b] = true
			}
		case *ast.RangeStmt:
			if b := baseIdent(x.Key); b != "" {
				binds[b] = true
			}
			if x.Value != nil {
				if b := baseIdent(x.Value); b != "" {
					binds[b] = true
				}
			}
		case *ast.ValueSpec:
			for _, name := range x.Names {
				binds[name.Name] = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if b := baseIdent(x.X); b != "" {
					binds[b] = true
				}
			}
		case *ast.CallExpr:
			if b := sc.mutatedReceiver(x); b != "" {
				conts[b] = true
			}
		}
		return true
	})
	return binds, conts
}

// incrementOnly reports whether every write to name under n is an
// `name++` on the bare identifier — the shape whose lower bound
// survives a loop.
func incrementOnly(n ast.Node, name string) bool {
	ok := true
	ast.Inspect(n, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				if id, isID := ast.Unparen(l).(*ast.Ident); isID && id.Name == name {
					ok = false
				}
			}
		case *ast.IncDecStmt:
			if id, isID := ast.Unparen(x.X).(*ast.Ident); isID && id.Name == name && x.Tok == token.DEC {
				ok = false
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if id, isID := ast.Unparen(x.X).(*ast.Ident); isID && id.Name == name {
					ok = false
				}
			}
		case *ast.RangeStmt:
			if baseIdent(x.Key) == name {
				ok = false
			}
			if x.Value != nil && baseIdent(x.Value) == name {
				ok = false
			}
		case *ast.ValueSpec:
			for _, nm := range x.Names {
				if nm.Name == name {
					ok = false
				}
			}
		}
		return ok
	})
	return ok
}

// declaredNames returns identifiers introduced by a simple statement
// (`i := ...` in an if/for/switch init).
func declaredNames(s ast.Stmt) map[string]bool {
	out := make(map[string]bool)
	if as, ok := s.(*ast.AssignStmt); ok && as.Tok == token.DEFINE {
		for _, l := range as.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok {
				out[id.Name] = true
			}
		}
	}
	return out
}

// switchHasFallthrough reports whether any case ends in fallthrough.
func switchHasFallthrough(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BranchStmt); ok && b.Tok == token.FALLTHROUGH {
			found = true
		}
		return !found
	})
	return found
}
