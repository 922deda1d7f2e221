package idsgen

import "vids/internal/core"

// ReconstructSpecs rebuilds interpreter-shaped core.Specs from the
// compiled tables — same states, transitions, labels, guard/action
// placement (as inert placeholders), final and attack markings — in
// the same order ids.Specs returns them. cmd/fsmdump's -backend
// compiled mode renders these, and the golden equivalence test asserts
// their DOT output is byte-identical to the interpreted specs', which
// pins the generated tables to the spec structure.
func ReconstructSpecs() []*core.Spec {
	specs := make([]*core.Spec, 0, len(specTables))
	for _, t := range specTables {
		specs = append(specs, reconstructSpec(t))
	}
	return specs
}

func reconstructSpec(t *machTable) *core.Spec {
	dummyGuard := func(*core.Ctx) bool { return true }
	dummyAction := func(*core.Ctx) {}
	s := core.NewSpec(t.name, t.states[t.initial])
	for si, from := range t.states {
		for ei, event := range t.events {
			for _, tr := range t.cell(uint8(si), ei) {
				g := (func(*core.Ctx) bool)(nil)
				if tr.guarded {
					g = dummyGuard
				}
				do := (func(*core.Ctx))(nil)
				if tr.action {
					do = dummyAction
				}
				s.OnLabeled(tr.label, from, event, g, do, t.states[tr.to])
			}
		}
	}
	var finals, attacks []core.State
	for i, st := range t.states {
		if t.final[i] {
			finals = append(finals, st)
		}
		if t.attack[i] {
			attacks = append(attacks, st)
		}
	}
	if len(finals) > 0 {
		s.Final(finals...)
	}
	if len(attacks) > 0 {
		s.Attack(attacks...)
	}
	return s
}
