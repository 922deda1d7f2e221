package main

import (
	"fmt"
	"go/ast"
	"go/types"
)

// checkDroppedErrors flags calls to (*core.Machine).Step,
// (*core.System).Deliver and (*core.System).DeliverSync whose results
// are discarded outright (expression statements, go/defer calls).
// ErrNoTransition from these calls *is* the specification-deviation
// signal of the paper — dropping it silently turns a detection into a
// no-op. An explicit `_, _ =` assignment is accepted as a deliberate,
// reviewable discard.
func checkDroppedErrors(ix *index, pi *pkgInfo) []finding {
	corePath := ix.a.corePath
	droppable := map[string]string{
		"(*" + corePath + ".Machine).Step":       "(*core.Machine).Step",
		"(*" + corePath + ".System).Deliver":     "(*core.System).Deliver",
		"(*" + corePath + ".System).DeliverSync": "(*core.System).DeliverSync",
	}
	var out []finding
	flag := func(call *ast.CallExpr) {
		site := ix.calls[call]
		if site.kind != callStatic {
			return
		}
		short, ok := droppable[site.fn.FullName()]
		if !ok {
			return
		}
		out = append(out, finding{
			pos: ix.a.fset.Position(call.Pos()),
			msg: fmt.Sprintf("result of %s discarded: its error is the specification-deviation signal — handle it or assign it explicitly", short),
		})
	}
	for _, f := range pi.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					flag(call)
				}
			case *ast.GoStmt:
				flag(n.Call)
			case *ast.DeferStmt:
				flag(n.Call)
			}
			return true
		})
	}
	return out
}

// checkArgsIndexing flags direct indexing of core.Event.Args outside
// internal/core. The typed accessors (StringArg, IntArg, Uint32Arg,
// DurationArg) centralize the nil-map and type-assertion handling;
// raw map indexing reintroduces per-call-site assumptions about the
// wire types.
func checkArgsIndexing(ix *index, pi *pkgInfo) []finding {
	var out []finding
	for _, f := range pi.files {
		ast.Inspect(f, func(n ast.Node) bool {
			idx, ok := n.(*ast.IndexExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(idx.X).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Args" {
				return true
			}
			t := pi.info.Types[sel.X].Type
			if t == nil {
				return true
			}
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if !isCoreNamed(t, ix.a.corePath, "Event") {
				return true
			}
			out = append(out, finding{
				pos: ix.a.fset.Position(idx.Pos()),
				msg: "direct index into core.Event.Args: use the typed accessors (Arg, StringArg, IntArg, Uint32Arg, DurationArg) instead",
			})
			return true
		})
	}
	return out
}

// checkPayloadStringConv flags string(...) conversions whose operand
// is a byte slice derived from a packet Payload field. Materializing
// the whole packet body as a string copies it once per packet — the
// exact allocation the single-pass parser removed from the hot path.
// Only internal/sipmsg (where the parser lives) may do it.
func checkPayloadStringConv(ix *index, pi *pkgInfo) []finding {
	var out []finding
	for _, f := range pi.files {
		ix.eachCall(f, func(site *callSite) {
			if site.kind != callConversion || len(site.call.Args) != 1 {
				return
			}
			if b, ok := site.typ.Underlying().(*types.Basic); !ok || b.Kind() != types.String {
				return
			}
			arg := site.call.Args[0]
			if !isByteSlice(pi.info.Types[arg].Type) || !mentionsPayload(arg) {
				return
			}
			out = append(out, finding{
				pos: ix.a.fset.Position(site.call.Pos()),
				msg: "string conversion of a packet Payload copies the body per packet: parse the bytes in place (only internal/sipmsg materializes payload strings)",
			})
		})
	}
	return out
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func mentionsPayload(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Payload" {
			found = true
		}
		return !found
	})
	return found
}

// checkSpecRegistry enforces the package contract of internal/ids:
// every function that constructs a core.Spec must (a) mark at least
// one Final or Attack state — a spec with neither can never evict a
// call nor raise an alert — and (b) be reachable from the Specs
// registry over the package's own call edges, so cmd/fsmdump and
// speclint actually verify it.
func checkSpecRegistry(ix *index, pi *pkgInfo) []finding {
	corePath := ix.a.corePath
	newSpecName := corePath + ".NewSpec"
	finalName := "(*" + corePath + ".Spec).Final"
	attackName := "(*" + corePath + ".Spec).Attack"

	var builders, stateless []*funcNode
	var specs *funcNode
	for _, node := range pi.funcs {
		if node.decl.Recv != nil {
			continue
		}
		if node.decl.Name.Name == "Specs" {
			specs = node
		}
		isBuilder, declaresState := false, false
		for _, site := range node.sites {
			if site.kind != callStatic {
				continue
			}
			switch site.fn.FullName() {
			case newSpecName:
				isBuilder = true
			case finalName, attackName:
				declaresState = true
			}
		}
		if isBuilder {
			builders = append(builders, node)
			if !declaresState {
				stateless = append(stateless, node)
			}
		}
	}
	if len(builders) == 0 {
		return nil
	}

	var out []finding
	for _, b := range stateless {
		out = append(out, finding{
			pos: ix.a.fset.Position(b.decl.Pos()),
			msg: fmt.Sprintf("spec builder %s declares neither Final nor Attack states: the machine can never be evicted or raise an alert", b.decl.Name.Name),
		})
	}
	if specs == nil {
		return append(out, finding{
			pos: ix.a.fset.Position(pi.files[0].Pos()),
			msg: "package constructs core.Spec values but declares no Specs registry function",
		})
	}
	samePkg := func(site *callSite) bool { return site.callee.pkg == pi && site.callee.decl.Recv == nil }
	registered := ix.walk([]*funcNode{specs}, samePkg, nil)
	for _, b := range builders {
		if !registered.reached[b] {
			out = append(out, finding{
				pos: ix.a.fset.Position(b.decl.Pos()),
				msg: fmt.Sprintf("spec builder %s is not reachable from the Specs registry: fsmdump and speclint never verify it", b.decl.Name.Name),
			})
		}
	}
	return out
}
