package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// checkGuardPurity flags transition guards — the Predicate arguments
// of (*core.Spec).On and OnLabeled — whose bodies mutate machine
// state: calling (*core.Ctx).Emit, calling a core.Vars mutator
// (Set, SetString, SetInt, SetUint32, SetBool, SetDuration), or
// assigning through an index expression into a core.Vars map. The
// paper's predicates P_t must be side-effect free: Machine.Step
// evaluates EVERY guard on an event to prove mutual disjointness, so
// an impure guard runs its side effects even when its transition is
// not taken, and speclint's probe-based discovery replays guards
// under synthetic contexts where stray writes corrupt the analysis.
// Guards written as function literals, locals bound to literals,
// declared functions or method values are all resolved (index.bodyOf).
func checkGuardPurity(ix *index, pi *pkgInfo) []finding {
	guardArg := map[string]int{
		"(*" + ix.a.corePath + ".Spec).On":        2,
		"(*" + ix.a.corePath + ".Spec).OnLabeled": 3,
	}
	var out []finding
	flagged := make(map[token.Pos]bool) // one finding per guard body
	for _, f := range pi.files {
		ix.eachCall(f, func(site *callSite) {
			if site.kind != callStatic {
				return
			}
			guardIdx, ok := guardArg[site.fn.FullName()]
			if !ok || len(site.call.Args) <= guardIdx {
				return
			}
			body := ix.bodyOf(pi.info, site.call.Args[guardIdx])
			if body == nil || flagged[body.Pos()] {
				return
			}
			if msg, pos, impure := guardImpurity(ix, pi, body); impure {
				flagged[body.Pos()] = true
				out = append(out, finding{pos: pos, msg: msg})
			}
		})
	}
	return out
}

// guardImpurity scans one guard body for side effects on machine
// state and reports the first one found. Same-package helpers the
// guard calls (directly, through a method value, or under a defer) are
// scanned at the call: delegating the write does not purify the guard.
func guardImpurity(ix *index, pi *pkgInfo, body *ast.BlockStmt) (msg string, pos token.Position, impure bool) {
	corePath := ix.a.corePath
	emitName := "(*" + corePath + ".Ctx).Emit"
	mutators := map[string]bool{
		"(" + corePath + ".Vars).Set":         true,
		"(" + corePath + ".Vars).SetString":   true,
		"(" + corePath + ".Vars).SetInt":      true,
		"(" + corePath + ".Vars).SetUint32":   true,
		"(" + corePath + ".Vars).SetBool":     true,
		"(" + corePath + ".Vars).SetDuration": true,
	}
	visited := make(map[*ast.BlockStmt]bool)
	var scan func(b *ast.BlockStmt)
	scan = func(b *ast.BlockStmt) {
		if visited[b] {
			return
		}
		visited[b] = true
		ast.Inspect(b, func(n ast.Node) bool {
			if impure {
				return false
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				site := ix.calls[n]
				if site == nil || site.kind != callStatic {
					return true
				}
				switch full := site.fn.FullName(); {
				case full == emitName:
					msg = "impure guard: calls (*core.Ctx).Emit — predicates are evaluated for every candidate transition, so a guard-side emission fires even when the transition is not taken; move the Emit into the Action"
					pos = ix.a.fset.Position(n.Pos())
					impure = true
				case mutators[full]:
					msg = fmt.Sprintf("impure guard: %s mutates machine variables — guards must be side-effect free (speclint probes re-run them under synthetic contexts); move the write into the Action", site.fn.Name())
					pos = ix.a.fset.Position(n.Pos())
					impure = true
				case site.callee != nil && site.callee.pkg == pi:
					scan(site.callee.decl.Body)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
					if !ok {
						continue
					}
					if isCoreNamed(pi.info.Types[idx.X].Type, corePath, "Vars") {
						msg = "impure guard: assigns into a core.Vars map — guards must be side-effect free (speclint probes re-run them under synthetic contexts); move the write into the Action"
						pos = ix.a.fset.Position(idx.Pos())
						impure = true
						break
					}
				}
			}
			return !impure
		})
	}
	scan(body)
	return msg, pos, impure
}

// isCoreNamed reports whether t is the named type internal/core.<name>.
func isCoreNamed(t types.Type, corePath, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == corePath
}

// checkWallClock flags time.Now and time.Sleep in simulation-driven
// packages (the rule table says which). Detection logic there must
// derive time from the virtual clock (sim.Sim.Now) so that replaying a
// recorded trace reproduces the live run bit-for-bit; a wall-clock read
// silently decouples the two. Deliberate wall-clock sites
// (self-instrumentation counters, OS socket deadlines) are annotated
// with a `//vidslint:allow wallclock` comment on the same line or the
// line above.
func checkWallClock(ix *index, pi *pkgInfo) []finding {
	var out []finding
	for _, f := range pi.files {
		ix.eachCall(f, func(site *callSite) {
			if site.kind != callStatic {
				return
			}
			full := site.fn.FullName()
			if full != "time.Now" && full != "time.Sleep" {
				return
			}
			pos := ix.a.fset.Position(site.call.Pos())
			if ix.waived(dirWallclock, pos) {
				return
			}
			out = append(out, finding{
				pos: pos,
				msg: fmt.Sprintf("%s in a simulation-driven package breaks virtual-clock determinism and trace-replay parity: use the simulator clock, or annotate a deliberate site with //vidslint:allow wallclock", full),
			})
		})
	}
	return out
}
