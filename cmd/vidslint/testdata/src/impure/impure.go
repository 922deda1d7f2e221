// Package impure deliberately violates vidslint's guard-purity rule;
// it is analyzed only by the analyzer's own tests (the go tool's
// ./... skips testdata).
package impure

import "vids/internal/core"

// EmittingGuard hides a δ-emission inside a guard literal. Flagged:
// Step evaluates every guard on an event, so the emission fires even
// when this transition is not taken.
func EmittingGuard() *core.Spec {
	s := core.NewSpec("impure-emit", "S0")
	s.On("S0", "go", func(c *core.Ctx) bool {
		c.Emit("peer", core.Event{Name: "delta.leak"})
		return true
	}, nil, "S1")
	s.Final("S1")
	return s
}

// mutatingGuard is bound to a local identifier before use; the rule
// must resolve the identifier back to the literal. Flagged: writes a
// machine variable from a predicate.
func MutatingGuard() *core.Spec {
	s := core.NewSpec("impure-set", "S0")
	guard := func(c *core.Ctx) bool {
		c.Vars.SetInt("seen", 1)
		return c.Event.IntArg("x") > 0
	}
	s.On("S0", "go", guard, nil, "S1")
	s.Final("S1")
	return s
}

// indexingGuard assigns into the Globals map through a package-level
// function used as a guard. Flagged.
func indexingGuard(c *core.Ctx) bool {
	c.Globals["g.dirty"] = core.IntVal(1)
	return true
}

func IndexingGuard() *core.Spec {
	s := core.NewSpec("impure-index", "S0")
	s.OnLabeled("dirty", "S0", "go", indexingGuard, nil, "S1")
	s.Final("S1")
	return s
}

// PureGuard reads the event and variables without writing anything.
// Not flagged: reads are what predicates are for, and the Action is
// the sanctioned place for the write.
func PureGuard() *core.Spec {
	s := core.NewSpec("pure", "S0")
	s.On("S0", "go", func(c *core.Ctx) bool {
		return c.Event.IntArg("x") > 0 && c.Vars.GetInt("seen") == 0
	}, func(c *core.Ctx) {
		c.Vars.SetInt("seen", 1)
		c.Emit("peer", core.Event{Name: "delta.ok"})
	}, "S1")
	s.Final("S1")
	return s
}
